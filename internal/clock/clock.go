// Package clock abstracts time so that schedulers, key rotation, and cache
// aging are deterministic under test. Production code uses Real; tests use
// Manual and advance time explicitly.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time surface the rest of the system depends on.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the then-current time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a stoppable timer that fires once d has elapsed.
	// Prefer it over After on paths that usually cancel the timer (e.g.
	// per-invoke deadlines): a stopped timer releases its resources
	// immediately instead of lingering until the deadline passes.
	NewTimer(d time.Duration) Timer
	// Sleep blocks until d has elapsed.
	Sleep(d time.Duration)
}

// Timer is a one-shot timer bound to a Clock.
type Timer interface {
	// C returns the channel the timer delivers on.
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was stopped before
	// firing. After a successful Stop the channel never delivers.
	Stop() bool
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }
func (r realTimer) Stop() bool          { return r.t.Stop() }

// Manual is a Clock whose time only moves when Advance is called. It is safe
// for concurrent use.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	// fired holds the channels the latest Advance delivered on.
	fired []chan time.Time
}

// NewManual returns a Manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

type waiter struct {
	at time.Time
	ch chan time.Time
	// timer, when non-nil, lets Stop suppress the delivery (the waiter
	// stays in the heap until due but fires into nothing).
	timer *manualTimer
}

type waiterHeap []waiter

func (h waiterHeap) Len() int            { return len(h) }
func (h waiterHeap) Less(i, j int) bool  { return h[i].at.Before(h[j].at) }
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	*h = old[:n-1]
	return w
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// After implements Clock. The returned channel fires when Advance moves the
// clock to or past now+d.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := m.now.Add(d)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	heap.Push(&m.waiters, waiter{at: at, ch: ch})
	return ch
}

// Sleep implements Clock. It blocks until another goroutine advances the
// clock far enough.
func (m *Manual) Sleep(d time.Duration) {
	<-m.After(d)
}

// NewTimer implements Clock: the timer fires when Advance moves the clock
// to or past now+d, unless stopped first.
func (m *Manual) NewTimer(d time.Duration) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTimer{m: m, ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.fired = true
		t.ch <- m.now
		return t
	}
	heap.Push(&m.waiters, waiter{at: m.now.Add(d), ch: t.ch, timer: t})
	return t
}

// manualTimer is a Manual-clock timer; fired/stopped are guarded by the
// clock's mutex.
type manualTimer struct {
	m       *Manual
	ch      chan time.Time
	fired   bool
	stopped bool
}

func (t *manualTimer) C() <-chan time.Time { return t.ch }

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// Advance moves the clock forward by d, firing any timers that come due.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	var due []waiter
	for len(m.waiters) > 0 && !m.waiters[0].at.After(m.now) {
		w := heap.Pop(&m.waiters).(waiter)
		if w.timer != nil {
			if w.timer.stopped {
				continue
			}
			w.timer.fired = true
		}
		due = append(due, w)
	}
	now := m.now
	fired := m.fired[:0]
	for _, w := range due {
		fired = append(fired, w.ch)
	}
	m.fired = fired
	m.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}

// Unreceived reports how many of the timers the latest Advance fired still
// hold their value: their waiters have not yet run. A driver that advances
// the clock from one goroutine can wait for it to reach zero before the next
// Advance, so that simulated time does not outrun the goroutines it wakes.
// A channel nobody receives from any more (a select that took another case)
// stays counted until the next Advance.
func (m *Manual) Unreceived() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ch := range m.fired {
		if len(ch) > 0 {
			n++
		}
	}
	return n
}

// Set moves the clock to exactly t (which must not be earlier than the
// current time), firing any timers that come due.
func (m *Manual) Set(t time.Time) {
	m.mu.Lock()
	if t.Before(m.now) {
		m.mu.Unlock()
		panic("clock: Set would move time backwards")
	}
	d := t.Sub(m.now)
	m.mu.Unlock()
	m.Advance(d)
}
