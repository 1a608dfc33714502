// Package good is the clean twin of vectoralias/bad: the same operations
// with the ownership discipline observed.
package good

import "syncstamp/internal/vector"

var global vector.V

// Holder stores timestamps it owns.
type Holder struct {
	stamp vector.V
	all   []vector.V
}

// StoreField clones before storing.
func (h *Holder) StoreField(v vector.V) {
	h.stamp = v.Clone()
}

// StoreGlobal clones before storing.
func StoreGlobal(v vector.V) {
	global = v.Clone()
}

// AppendClone clones before retaining.
func (h *Holder) AppendClone(v vector.V) {
	h.all = append(h.all, v.Clone())
}

// MutateOwned clones, then mutates the owned copy.
func MutateOwned(v, w vector.V) vector.V {
	u := v.Clone()
	u.Max(w)
	u[0]++
	return u
}

// ReadOnly reads the loan without retaining it.
func ReadOnly(v vector.V) int {
	sum := 0
	for _, x := range v {
		sum += x
	}
	return sum
}

// Clock mimics core.Clock with the correct accessor.
type Clock struct {
	v vector.V
}

// Current snapshots the internal vector.
func (c *Clock) Current() vector.V {
	return c.v.Clone()
}

// FreshLocal returns a locally built vector; no borrow involved.
func FreshLocal(d int) vector.V {
	v := vector.New(d)
	v[0] = 1
	return v
}

// MergeIntoOwned copies the loan into a vector it owns and returns it;
// copying out of a borrowed vector is a read.
func MergeIntoOwned(v, w vector.V) vector.V {
	u := vector.New(len(v))
	copy(u, v)
	u.Max(w)
	return u
}
