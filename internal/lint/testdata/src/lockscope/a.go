// Fixtures for the lockscope analyzer: locks held at exit, mutex value
// copies, and guarded-field access.
package lockscope

import (
	"os"
	"sync"
)

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func returnWhileHeld(c *counter) int {
	c.mu.Lock()
	return c.n // want `return with c.mu still held`
}

func balanced(c *counter) int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return n
}

func deferred(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func deferredClosure(c *counter) int {
	c.mu.Lock()
	defer func() { c.mu.Unlock() }()
	return c.n
}

func branchLeak(c *counter, b bool) int {
	c.mu.Lock()
	if b {
		c.mu.Unlock()
		return 0
	}
	return c.n // want `return with c.mu still held`
}

func panicWhileHeld(c *counter) {
	c.mu.Lock()
	if c.n < 0 {
		panic("negative") // want `panic with c.mu still held`
	}
	c.mu.Unlock()
}

func fallOffEndWhileHeld(c *counter) {
	c.mu.Lock()
	c.n++
} // want `function exit with c.mu still held`

func exitProcess(c *counter) {
	c.mu.Lock()
	if c.n > 10 {
		os.Exit(1) // process ends; held locks are moot: clean
	}
	c.mu.Unlock()
}

type table struct {
	mu sync.RWMutex
	m  map[string]int // guarded by mu
}

func readBalanced(t *table, k string) int {
	t.mu.RLock()
	v := t.m[k]
	t.mu.RUnlock()
	return v
}

func readLeak(t *table, k string) int {
	t.mu.RLock()
	return t.m[k] // want `return with t.mu still held`
}

type holder struct{ mu sync.Mutex }

func sink(h holder)      {}
func sinkPtr(h *holder)  {}
func twoLocks(a, b bool) {}

func copies(h holder) {
	g := h  // want `copies a value containing sync.Mutex`
	sink(g) // want `copies a value containing sync.Mutex`
	hs := make([]holder, 1)
	for _, x := range hs { // want `copies a value containing sync.Mutex`
		sinkPtr(&x)
	}
}

func pointersAreFine(h *holder) *holder {
	g := h
	sinkPtr(g)
	return g
}

type store struct {
	mu   sync.Mutex
	data map[string]int // guarded by mu
}

func (s *store) get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[k]
}

// getLocked returns the value for k. Caller holds s.mu.
func (s *store) getLocked(k string) int {
	return s.data[k]
}

func (s *store) unguarded(k string) int {
	return s.data[k] // want `store.data is annotated`
}

// box is generic: its methods see an instantiation of it, and the
// annotation on the origin still applies.
type box[T any] struct {
	mu sync.Mutex
	v  T // guarded by mu
}

func (b *box[T]) get() T {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.v
}

func (b *box[T]) peek() T {
	return b.v // want `box.v is annotated`
}

func allowedHandoff(c *counter) {
	c.mu.Lock()
	//lint:allow lockscope fixture demonstrates an annotated lock handoff
	return
}
