// Package bad seeds vectoralias violations: every way a loaned vector.V can
// leak into long-lived state or be mutated in place.
package bad

import "syncstamp/internal/vector"

// global retains timestamps across calls.
var global vector.V

// Holder stores a timestamp.
type Holder struct {
	stamp vector.V
	all   []vector.V
	byID  map[int]vector.V
}

// StoreField aliases the parameter into a field.
func (h *Holder) StoreField(v vector.V) {
	h.stamp = v // want: stored in field without Clone()
}

// StoreGlobal aliases the parameter into a package variable.
func StoreGlobal(v vector.V) {
	global = v // want: stored in package variable
}

// StoreElems aliases the parameter into slice and map elements.
func (h *Holder) StoreElems(v vector.V) {
	h.all[0] = v  // want: stored in element
	h.byID[7] = v // want: stored in element
}

// AppendAlias retains the alias through append.
func (h *Holder) AppendAlias(v vector.V) {
	h.all = append(h.all, v) // want: appended without Clone()
}

// Mutate writes through the loaned vector.
func Mutate(v vector.V) {
	v[0] = 3 // want: element assignment
	v[1]++   // want: IncDec
}

// MutateViaAlias propagates the borrow through a local alias.
func MutateViaAlias(v vector.V) {
	u := v
	u[0] = 1 // want: element assignment through alias
}

// MergeInPlace mutates the loaned vector with Max.
func MergeInPlace(v, w vector.V) {
	v.Max(w) // want: mutated by Max()
}

// Clock mimics core.Clock.
type Clock struct {
	v vector.V
}

// Current leaks the internal vector.
func (c *Clock) Current() vector.V {
	return c.v // want: accessor returns internal vector
}

// MergeIntoCaller hands its result back through the loaned vector: copy
// overwrites the caller's clock as surely as an element write.
func MergeIntoCaller(v, w vector.V) {
	copy(v, w)     // want: mutated by copy()
	copy(v[1:], w) // want: mutated by copy() through a reslice
}
