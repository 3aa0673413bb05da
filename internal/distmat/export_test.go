package distmat

// LocalNNZ returns the number of locally held entries.
func (m *Mat[T]) LocalNNZ() int { return len(m.Local) }
