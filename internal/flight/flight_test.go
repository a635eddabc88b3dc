package flight

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoBuildsOnce: concurrent callers of one key share a single
// build, and exactly one of them reports having built it.
func TestMemoBuildsOnce(t *testing.T) {
	m := NewMemo[string, int](4)
	release := make(chan struct{})
	var builds, builders atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, built, err := m.Do("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if built {
				builders.Add(1)
			}
			if v != 42 || err != nil {
				t.Errorf("Do = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if builds.Load() != 1 || builders.Load() != 1 {
		t.Fatalf("builds = %d, builders = %d; want 1 and 1", builds.Load(), builders.Load())
	}
}

// TestMemoKeepsErrorsAndPanics: a failed or panicking build is stored
// like a value; later callers get the same error without a rebuild.
func TestMemoKeepsErrorsAndPanics(t *testing.T) {
	m := NewMemo[string, int](4)
	boom := errors.New("boom")
	builds := 0
	for i := 0; i < 2; i++ {
		if _, _, err := m.Do("err", func() (int, error) { builds++; return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("Do err = %v, want boom", err)
		}
		if _, _, err := m.Do("panic", func() (int, error) { builds++; panic("bad") }); err == nil || !strings.Contains(err.Error(), "panic: bad") {
			t.Fatalf("Do err = %v, want the panic as an error", err)
		}
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2", builds)
	}
}

// TestMemoBoundAndPeek: past the bound the memo drops every entry at
// once; Peek sees only finished builds and never inserts.
func TestMemoBoundAndPeek(t *testing.T) {
	m := NewMemo[int, int](2)
	one := func(k int) func() (int, error) { return func() (int, error) { return k, nil } }
	m.Do(1, one(1))
	for k := 10; k < 20; k++ {
		if _, ok, _ := m.Peek(k); ok {
			t.Fatalf("Peek(%d) found an absent key", k)
		}
	}
	if v, ok, err := m.Peek(1); !ok || v != 1 || err != nil {
		t.Fatalf("Peek(1) = %d, %v, %v after Peeks of absent keys; want 1, true, nil", v, ok, err)
	}
	m.Do(2, one(2))
	m.Do(3, one(3)) // third key: drops 1 and 2
	if _, ok, _ := m.Peek(1); ok {
		t.Fatal("key 1 survived the wholesale drop")
	}
	if _, built, _ := m.Do(1, one(1)); !built {
		t.Fatal("key 1 was not rebuilt after the drop")
	}

	started, release := make(chan struct{}), make(chan struct{})
	go m.Do(7, func() (int, error) { close(started); <-release; return 7, nil })
	<-started
	if _, ok, _ := m.Peek(7); ok {
		t.Fatal("Peek returned a build still in progress")
	}
	close(release)
	if v, _, _ := m.Do(7, one(0)); v != 7 {
		t.Fatalf("Do(7) = %d, want the in-flight build's 7", v)
	}
}

// TestGroupClaimPublish: the first claim leads, later claims follow the
// same call until the leader publishes, after which the key is free.
func TestGroupClaimPublish(t *testing.T) {
	var g Group[string, int]
	lead, leader := g.Claim("k")
	follow, again := g.Claim("k")
	if !leader || again || follow != lead {
		t.Fatalf("Claim: leader=%v again=%v same=%v; want true, false, true", leader, again, follow == lead)
	}
	boom := errors.New("boom")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, err := follow.Wait(); v != 5 || err != boom {
			t.Errorf("follower got %d, %v; want 5, boom", v, err)
		}
	}()
	g.Publish("k", lead, 5, boom)
	<-done
	if _, leader := g.Claim("k"); !leader {
		t.Fatal("key still claimed after Publish")
	}
}
