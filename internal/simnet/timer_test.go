package simnet

import (
	"testing"
	"time"
)

// onWheel runs a Timer-handle test as subtest "wheel" on a fresh Wheel.
func onWheel(t *testing.T, test func(t *testing.T, s *Wheel)) {
	t.Run("wheel", func(t *testing.T) { test(t, NewWheel()) })
}

func TestTimerCancelThroughCopy(t *testing.T) {
	onWheel(t, func(t *testing.T, s *Wheel) {
		fired := false
		tm := s.After(time.Second, func() { fired = true })
		cp := tm
		if !cp.Cancel() {
			t.Fatal("Cancel through a copy returned false")
		}
		if tm.Cancel() {
			t.Fatal("Cancel through the original after the copy canceled returned true")
		}
		s.Run()
		if fired {
			t.Fatal("event canceled through a copy fired")
		}
	})
}

func TestTimerCancelAfterFire(t *testing.T) {
	onWheel(t, func(t *testing.T, s *Wheel) {
		fired := 0
		tm := s.After(time.Second, func() { fired++ })
		s.Run()
		if fired != 1 {
			t.Fatalf("one-shot fired %d times, want 1", fired)
		}
		if tm.Cancel() {
			t.Fatal("Cancel after the one-shot fired returned true")
		}
	})
}

func TestTimerSecondCancel(t *testing.T) {
	onWheel(t, func(t *testing.T, s *Wheel) {
		tm := s.After(time.Second, func() {})
		if !tm.Cancel() {
			t.Fatal("first Cancel returned false")
		}
		if tm.Cancel() {
			t.Fatal("second Cancel returned true")
		}
		var zero Timer
		if zero.Cancel() {
			t.Fatal("Cancel of the zero Timer returned true")
		}
	})
}

func TestTimerPeriodicCancelInOwnTick(t *testing.T) {
	onWheel(t, func(t *testing.T, s *Wheel) {
		fires := 0
		var tm Timer
		tm = s.Every(time.Second, func() {
			fires++
			if fires == 2 && !tm.Cancel() {
				t.Fatal("Cancel from within the periodic tick returned false")
			}
		})
		s.RunUntil(time.Minute)
		if fires != 2 {
			t.Fatalf("periodic fired %d times after in-tick cancel at 2, want 2", fires)
		}
		if tm.Cancel() {
			t.Fatal("Cancel after the in-tick cancel returned true")
		}
	})
}

// TestTimerStaleHandleABA pins the identity check: a handle whose event
// was recycled and then reused by a newer timer must not cancel the newer
// timer.
func TestTimerStaleHandleABA(t *testing.T) {
	onWheel(t, func(t *testing.T, s *Wheel) {
		stale := s.After(time.Second, func() {})
		s.Run() // fires and recycles stale's event
		fired := false
		fresh := s.After(time.Second, func() { fired = true })
		if fresh.ev != stale.ev {
			t.Fatal("pool did not reuse the recycled event; the test needs slot reuse")
		}
		if stale.Cancel() {
			t.Fatal("stale handle canceled the event slot's newer timer")
		}
		s.Run()
		if !fired {
			t.Fatal("newer timer did not fire after a stale Cancel")
		}
	})
}

// TestTimerAllocFree checks that a one-shot timer — scheduled with a
// prebuilt callback, canceled or fired — allocates nothing once the event
// pool is warm: the handle is a value, not a heap object.
func TestTimerAllocFree(t *testing.T) {
	s := NewWheel()
	fn := func() {}
	canceled := testing.AllocsPerRun(100, func() {
		tm := s.After(time.Millisecond, fn)
		tm.Cancel()
		s.RunUntil(s.Now() + time.Millisecond)
	})
	if canceled != 0 {
		t.Errorf("After+Cancel allocated %.1f objects per run, want 0", canceled)
	}
	fired := testing.AllocsPerRun(100, func() {
		s.After(time.Millisecond, fn)
		s.RunUntil(s.Now() + time.Millisecond)
	})
	if fired != 0 {
		t.Errorf("After+fire allocated %.1f objects per run, want 0", fired)
	}
}
