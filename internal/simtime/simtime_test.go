package simtime

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"oasis/internal/rng"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3*Second, "c", func() { order = append(order, 3) })
	s.Schedule(1*Second, "a", func() { order = append(order, 1) })
	s.Schedule(2*Second, "b", func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3*Second {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(Second, "e", func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New()
	var fired []Time
	s.After(time.Second, "outer", func() {
		fired = append(fired, s.Now())
		s.After(2*time.Second, "inner", func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != Second || fired[1] != 3*Second {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []int
	s.Schedule(1*Second, "a", func() { fired = append(fired, 1) })
	s.Schedule(5*Second, "b", func() { fired = append(fired, 5) })
	s.RunUntil(3 * Second)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 3*Second {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
	if len(s.queue) != 1 {
		t.Fatalf("pending = %d", len(s.queue))
	}
	s.RunUntil(10 * Second)
	if len(fired) != 2 {
		t.Fatal("remaining event did not fire")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(2*Second, "a", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(Second, "late", func() {})
}

func TestNegativeAfterClamps(t *testing.T) {
	s := New()
	ran := false
	s.After(-time.Second, "neg", func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("negative After did not run at now")
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(90 * time.Minute)
	if tm.Hours() != 1.5 || tm.Seconds() != 5400 {
		t.Error("conversions broken")
	}
	if tm.Add(30*time.Minute) != 2*Hour {
		t.Error("Add broken")
	}
	if (2 * Hour).Sub(tm) != 30*time.Minute {
		t.Error("Sub broken")
	}
	if got := tm.String(); got != "01:30:00.000" {
		t.Errorf("String = %q", got)
	}
	if Day != 24*Hour {
		t.Error("Day constant wrong")
	}
}

// TestFiringOrderIsStableSortByInstant schedules a random history with
// many events per instant, a third of them from inside callbacks (at the
// firing instant or later), and checks that the events fire in the order
// of a stable sort of the scheduling order by instant: (at, seq) order.
func TestFiringOrderIsStableSortByInstant(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := New()
		r := rng.New(seed)
		type sched struct {
			at Time
			id int
		}
		var scheduled []sched
		var fired []int
		var add func()
		add = func() {
			at := s.Now() + Time(r.Intn(5))*Second
			id := len(scheduled)
			scheduled = append(scheduled, sched{at, id})
			s.Schedule(at, "e", func() {
				fired = append(fired, id)
				for len(scheduled) < 3000 && r.Bool(0.35) {
					add()
				}
			})
		}
		for i := 0; i < 500; i++ {
			add()
		}
		for i := 0; s.Step(); i++ {
			if i%97 == 0 {
				add() // scheduled between steps, at or after now
			}
		}
		want := slices.Clone(scheduled)
		slices.SortStableFunc(want, func(a, b sched) int { return cmp.Compare(a.at, b.at) })
		if len(fired) != len(want) {
			t.Fatalf("seed %d: %d events fired, %d scheduled", seed, len(fired), len(want))
		}
		for i, w := range want {
			if fired[i] != w.id {
				t.Fatalf("seed %d: event %d fired %dth, want event %d (at %v)", seed, fired[i], i, w.id, w.at)
			}
		}
		if s.Processed != uint64(len(want)) || s.seq != uint64(len(want)) {
			t.Fatalf("seed %d: processed %d, seq %d, want %d", seed, s.Processed, s.seq, len(want))
		}
	}
}
