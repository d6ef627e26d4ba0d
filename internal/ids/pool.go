package ids

import (
	"runtime"
	"slices"
	"sync"
)

// Pool hands storage one simulation run released to a later run, on any
// goroutine, so a process running experiment after experiment holds one
// run's memory. Get returns only what Put stored under an equal key: a
// size, a type, or nil. As in a sync.Pool, what no Get takes is dropped at
// the second garbage collection after its Put; but where a sync.Pool keeps
// one value per processor that only Gets on that processor find, every Get
// here sees everything.
type Pool[T any] struct {
	mu         sync.Mutex
	fresh, old map[any][]T // Put since the last collection, and before it
}

// Get returns a value Put stored under key, or ok false when there is none.
func (p *Pool[T]) Get(key any) (x T, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, bins := range [...]map[any][]T{p.fresh, p.old} {
		if s := bins[key]; len(s) > 0 {
			x = s[len(s)-1]
			bins[key] = slices.Delete(s, len(s)-1, len(s))
			return x, true
		}
	}
	return x, false
}

// Put stores x under key. The caller must not use x afterwards.
func (p *Pool[T]) Put(key any, x T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fresh == nil && p.old == nil {
		p.ageAfterGC()
	}
	if p.fresh == nil {
		p.fresh = make(map[any][]T)
	}
	p.fresh[key] = append(p.fresh[key], x)
}

// ageAfterGC makes fresh old and drops old after the next garbage
// collection, and after each later one until the pool is empty: a finalizer
// runs once a collection finds its object unreachable. The object holds a
// pointer, which keeps it out of the tiny allocator, where a live neighbour
// would keep it reachable.
func (p *Pool[T]) ageAfterGC() {
	runtime.SetFinalizer(new(*byte), func(**byte) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.fresh, p.old = nil, p.fresh; p.old != nil {
			p.ageAfterGC()
		}
	})
}
