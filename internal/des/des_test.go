package des

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	s := New(1)
	var order []int
	mustSchedule(t, s, 3, func(*Simulator) { order = append(order, 3) })
	mustSchedule(t, s, 1, func(*Simulator) { order = append(order, 1) })
	mustSchedule(t, s, 2, func(*Simulator) { order = append(order, 2) })
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want 3", s.Now())
	}
	if s.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", s.Processed())
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		mustSchedule(t, s, 5, func(*Simulator) { order = append(order, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestScheduleDuringEvent(t *testing.T) {
	s := New(1)
	var hits []float64
	mustSchedule(t, s, 1, func(sim *Simulator) {
		hits = append(hits, sim.Now())
		if _, err := sim.After(2, func(sim2 *Simulator) {
			hits = append(hits, sim2.Now())
		}); err != nil {
			t.Errorf("After: %v", err)
		}
	})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits = %v, want [1 3]", hits)
	}
}

func TestScheduleAtNowRunsAfterQueued(t *testing.T) {
	s := New(1)
	var order []string
	mustSchedule(t, s, 1, func(sim *Simulator) {
		order = append(order, "first")
		if _, err := sim.Schedule(sim.Now(), func(*Simulator) {
			order = append(order, "self")
		}); err != nil {
			t.Errorf("schedule at now: %v", err)
		}
	})
	mustSchedule(t, s, 1, func(*Simulator) { order = append(order, "second") })
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "self"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastErrors(t *testing.T) {
	s := New(1)
	mustSchedule(t, s, 5, func(*Simulator) {})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(4, func(*Simulator) {}); err == nil {
		t.Fatal("scheduling in the past should error")
	}
	if _, err := s.Schedule(math.NaN(), func(*Simulator) {}); err == nil {
		t.Fatal("NaN time should error")
	}
	if _, err := s.After(-1, func(*Simulator) {}); err == nil {
		t.Fatal("negative delay should error")
	}
	if _, err := s.Schedule(10, nil); err == nil {
		t.Fatal("nil callback should error")
	}
}

func TestHorizonStopsClock(t *testing.T) {
	s := New(1)
	fired := false
	mustSchedule(t, s, 10, func(*Simulator) { fired = true })
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event past horizon fired")
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want horizon 5", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	// Continuing past the horizon fires the event.
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event not fired after extending horizon")
	}
}

func TestRunHorizonBeforeNow(t *testing.T) {
	s := New(1)
	mustSchedule(t, s, 5, func(*Simulator) {})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1); err == nil {
		t.Fatal("horizon before now should error")
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 5; i++ {
		mustSchedule(t, s, float64(i), func(sim *Simulator) {
			count++
			if count == 2 {
				sim.Stop()
			}
		})
	}
	err := s.RunAll()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	// A later Run resumes.
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5 after resume", count)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := mustSchedule(t, s, 1, func(*Simulator) { fired = true })
	if !s.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(ev) {
		t.Fatal("double Cancel should return false")
	}
	if s.Cancel(nil) {
		t.Fatal("Cancel(nil) should return false")
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New(1)
	var fired []int
	var events []*Event
	for i := 0; i < 8; i++ {
		i := i
		events = append(events, mustSchedule(t, s, float64(i), func(*Simulator) {
			fired = append(fired, i)
		}))
	}
	s.Cancel(events[3])
	s.Cancel(events[5])
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 4, 6, 7}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New(42)
		var samples []float64
		var tick func(*Simulator)
		tick = func(sim *Simulator) {
			samples = append(samples, sim.RNG().Float64())
			if len(samples) < 50 {
				if _, err := sim.After(sim.RNG().ExpFloat64(), tick); err != nil {
					t.Fatal(err)
				}
			}
		}
		mustSchedule(t, s, 0, tick)
		if err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
		return samples
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func mustSchedule(t *testing.T, s *Simulator, at float64, fn func(*Simulator)) *Event {
	t.Helper()
	ev, err := s.Schedule(at, fn)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.1*float64(want) {
			t.Errorf("bucket %d count %d deviates more than 10%% from %d", i, c, want)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(20)
	seen := make(map[int]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRNGPermIsShuffled(t *testing.T) {
	// With 100 elements the probability of the identity permutation is
	// negligible; the test guards Perm actually shuffling.
	r := NewRNG(12)
	p := r.Perm(100)
	identity := true
	for i, v := range p {
		if v != i {
			identity = false
			break
		}
	}
	if identity {
		t.Fatal("Perm returned identity permutation")
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / draws
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exp mean = %v, want ~1", mean)
	}
}

func TestRNGDeterministicStream(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 100; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}
