package sparse

import "fmt"

// Clone returns a deep copy.
func (a *COO[T]) Clone() *COO[T] {
	e := make([]Entry[T], len(a.E))
	copy(e, a.E)
	return &COO[T]{Rows: a.Rows, Cols: a.Cols, E: e}
}

// Validate checks that all coordinates are in range.
func (a *COO[T]) Validate() error {
	for _, e := range a.E {
		if e.I < 0 || int(e.I) >= a.Rows || e.J < 0 || int(e.J) >= a.Cols {
			return fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", e.I, e.J, a.Rows, a.Cols)
		}
	}
	return nil
}
