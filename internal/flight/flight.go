// Package flight is the once-per-key machinery of the simulator's run
// paths: a bounded Memo (first caller builds a key's value, concurrent
// callers wait for it, later callers reuse it) and a Group singleflight
// (first caller leads a key's pending call, concurrent callers follow
// it, the key is forgotten once the outcome is published).
//
// sim.Sweep memoises warm donors per sweep; the worker daemon memoises
// traces and warm donors and deduplicates in-flight points; the fleet
// coordinator deduplicates in-flight points across batches.
package flight

import (
	"fmt"
	"sync"
)

// Call is one key's pending or finished computation.
type Call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newCall[V any]() *Call[V] { return &Call[V]{done: make(chan struct{})} }

// Wait blocks until the call's outcome is published and returns it.
func (c *Call[V]) Wait() (V, error) {
	<-c.done
	return c.val, c.err
}

func (c *Call[V]) finish(v V, err error) {
	c.val, c.err = v, err
	close(c.done)
}

func (c *Call[V]) finished() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// protect runs fn, turning a panic into an error. A leader's waiters
// are parked on its call; an unrecovered panic would never publish the
// outcome (hanging every waiter) and, one frame up, would kill the
// process.
func protect[V any](fn func() (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero V
			v, err = zero, fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// Memo builds each key's value once and keeps it: the first caller of
// Do for a key runs build, concurrent callers wait for that build, and
// later callers get the stored outcome, errors included. Past its
// bound the memo drops every entry at once (the keys in use at any
// time are few, so the simple policy rarely fires).
type Memo[K comparable, V any] struct {
	limit int

	mu sync.Mutex
	m  map[K]*Call[V]
}

// NewMemo returns a memo holding at most limit keys.
func NewMemo[K comparable, V any](limit int) *Memo[K, V] {
	return &Memo[K, V]{limit: limit, m: map[K]*Call[V]{}}
}

// Do returns key's value, building it on first use. built is true for
// the one caller that ran build.
func (m *Memo[K, V]) Do(key K, build func() (V, error)) (v V, built bool, err error) {
	m.mu.Lock()
	c, ok := m.m[key]
	if !ok {
		if len(m.m) >= m.limit {
			m.m = map[K]*Call[V]{}
		}
		c = newCall[V]()
		m.m[key] = c
	}
	m.mu.Unlock()
	if !ok {
		c.finish(protect(build))
	}
	v, err = c.Wait()
	return v, !ok, err
}

// Peek returns key's outcome when its build has finished; ok is false
// for an absent or still-building key. It never inserts.
func (m *Memo[K, V]) Peek(key K) (v V, ok bool, err error) {
	m.mu.Lock()
	c := m.m[key]
	m.mu.Unlock()
	if c == nil || !c.finished() {
		return v, false, nil
	}
	return c.val, true, c.err
}

// Group deduplicates concurrent work by key. A caller either claims a
// key and leads its call, publishing the outcome when done, or follows
// the call already pending. Unlike a Memo, a Group keeps nothing: the
// key is free again as soon as its outcome is published. The zero
// value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*Call[V]
}

// Claim returns key's pending call. leader is true when this caller
// created it; the leader must Publish the call's outcome exactly once.
func (g *Group[K, V]) Claim(key K) (c *Call[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	if g.calls == nil {
		g.calls = map[K]*Call[V]{}
	}
	c = newCall[V]()
	g.calls[key] = c
	return c, true
}

// Publish releases a leader's call with its outcome and frees the key.
func (g *Group[K, V]) Publish(key K, c *Call[V], v V, err error) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.finish(v, err)
}

// Do runs fn once per key among concurrent callers: the leader runs it
// (a panic becomes an error), followers wait and share its outcome.
// shared is true for followers.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (v V, shared bool, err error) {
	c, leader := g.Claim(key)
	if !leader {
		v, err = c.Wait()
		return v, true, err
	}
	v, err = protect(fn)
	g.Publish(key, c, v, err)
	return v, false, err
}
