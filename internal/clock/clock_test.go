package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealNow(t *testing.T) {
	c := Real{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v not in [%v, %v]", got, before, after)
	}
}

func TestManualNowIsFixed(t *testing.T) {
	start := time.Date(2024, 8, 4, 0, 0, 0, 0, time.UTC)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", m.Now(), start)
	}
	m.Advance(3 * time.Second)
	if want := start.Add(3 * time.Second); !m.Now().Equal(want) {
		t.Fatalf("after Advance, Now() = %v, want %v", m.Now(), want)
	}
}

func TestManualAfterFiresOnAdvance(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	ch := m.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before Advance")
	default:
	}
	m.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired too early")
	default:
	}
	m.Advance(time.Second)
	select {
	case at := <-ch:
		if want := time.Unix(10, 0); !at.Equal(want) {
			t.Fatalf("timer fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire after full Advance")
	}
}

func TestManualUnreceivedCountsLatestAdvance(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	a := m.After(time.Second)
	b := m.After(time.Second)
	stopped := m.NewTimer(time.Second)
	stopped.Stop()
	later := m.After(time.Minute)
	if n := m.Unreceived(); n != 0 {
		t.Fatalf("Unreceived() = %d before any Advance, want 0", n)
	}
	m.Advance(time.Second)
	if n := m.Unreceived(); n != 2 {
		t.Fatalf("Unreceived() = %d after firing two timers, want 2", n)
	}
	<-a
	if n := m.Unreceived(); n != 1 {
		t.Fatalf("Unreceived() = %d after one receive, want 1", n)
	}
	<-b
	if n := m.Unreceived(); n != 0 {
		t.Fatalf("Unreceived() = %d after both receives, want 0", n)
	}
	m.Advance(time.Second)
	if n := m.Unreceived(); n != 0 {
		t.Fatalf("Unreceived() = %d after an Advance firing nothing, want 0", n)
	}
	m.Advance(time.Minute)
	if n := m.Unreceived(); n != 1 {
		t.Fatalf("Unreceived() = %d, want 1", n)
	}
	<-later
}

func TestManualAfterZeroFiresImmediately(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	select {
	case <-m.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestManualMultipleWaitersFireInOrder(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	ch1 := m.After(1 * time.Second)
	ch3 := m.After(3 * time.Second)
	ch2 := m.After(2 * time.Second)
	m.Advance(2 * time.Second)
	for name, ch := range map[string]<-chan time.Time{"1s": ch1, "2s": ch2} {
		select {
		case <-ch:
		default:
			t.Fatalf("timer %s did not fire", name)
		}
	}
	select {
	case <-ch3:
		t.Fatal("3s timer fired at t=2s")
	default:
	}
}

func TestManualSleepUnblocks(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	var wg sync.WaitGroup
	wg.Add(1)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		m.Sleep(5 * time.Second)
		close(done)
	}()
	// Wait until the sleeper has registered its waiter.
	for {
		m.mu.Lock()
		n := len(m.waiters)
		m.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m.Advance(5 * time.Second)
	wg.Wait()
	<-done
}

func TestManualSetForwards(t *testing.T) {
	m := NewManual(time.Unix(100, 0))
	ch := m.After(50 * time.Second)
	m.Set(time.Unix(200, 0))
	select {
	case <-ch:
	default:
		t.Fatal("Set did not fire due timer")
	}
	if !m.Now().Equal(time.Unix(200, 0)) {
		t.Fatalf("Now() = %v after Set", m.Now())
	}
}

func TestManualTimerFiresOnAdvance(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	tm := m.NewTimer(5 * time.Second)
	m.Advance(4 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired early")
	default:
	}
	m.Advance(time.Second)
	select {
	case at := <-tm.C():
		if !at.Equal(time.Unix(5, 0)) {
			t.Fatalf("fired at %v", at)
		}
	default:
		t.Fatal("timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing reported true")
	}
}

func TestManualTimerStopSuppressesDelivery(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	tm := m.NewTimer(5 * time.Second)
	if !tm.Stop() {
		t.Fatal("Stop before firing reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	m.Advance(10 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer delivered")
	default:
	}
}

func TestManualTimerZeroFiresImmediately(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	tm := m.NewTimer(0)
	select {
	case <-tm.C():
	default:
		t.Fatal("NewTimer(0) did not fire immediately")
	}
}

func TestRealTimerStop(t *testing.T) {
	c := Real{}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop before firing reported false")
	}
	tm = c.NewTimer(0)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire")
	}
}

func TestManualSetBackwardsPanics(t *testing.T) {
	m := NewManual(time.Unix(100, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("Set backwards did not panic")
		}
	}()
	m.Set(time.Unix(50, 0))
}
