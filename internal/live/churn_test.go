package live

import (
	"reflect"
	"testing"
)

func TestParseChurnSpec(t *testing.T) {
	spec, err := ParseChurnSpec("4,6,200,99")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Channels != 4 || spec.Initial != 6 || spec.Events != 200 || spec.Seed != 99 {
		t.Fatalf("parsed %+v", spec)
	}
	if spec.MaxBudget != 4 || spec.MinBudget != 1 {
		t.Fatalf("default budgets [%d, %d], want [1, 4]", spec.MinBudget, spec.MaxBudget)
	}
	spec, err = ParseChurnSpec("8, 5, 50")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 1 || spec.MaxBudget != 4 {
		t.Fatalf("defaulted spec %+v, want seed 1, max budget 4", spec)
	}
	for _, bad := range []string{"", "4", "4,5", "4,5,6,7,8", "x,5,6", "4,5,0", "0,5,6", "4,-1,6", "4,5,6,-1"} {
		if _, err := ParseChurnSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// FuzzParseChurnSpec feeds arbitrary strings to allocd's churn-spec
// grammar. Nothing may panic, every accepted spec passes Validate, and a
// small accepted spec generates exactly its number of requests.
func FuzzParseChurnSpec(f *testing.F) {
	for _, s := range []string{"4,6,200,7", "8, 5, 50", "16,1024,7024,2006", "0,5,6", "4,-1,6", "4,5,6,-1", "x", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseChurnSpec(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%q parsed to %+v, which fails Validate: %v", s, spec, err)
		}
		if spec.Initial > 64 || spec.Events > 256 {
			return
		}
		trace, err := GenerateTrace(spec)
		if err != nil || len(trace) != spec.Events {
			t.Fatalf("%q: %d requests, want %d (%v)", s, len(trace), spec.Events, err)
		}
	})
}

// TestGenerateTraceDeterministicAndValid pins the two properties the
// golden-transcript tests build on: same seed, same trace — and every
// leave/budget request names a user that is live at that point given
// sequential id assignment.
func TestGenerateTraceDeterministicAndValid(t *testing.T) {
	spec := DefaultChurnSpec(4, 6, 300, 0xC0FFEE)
	a, err := GenerateTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different traces")
	}
	if len(a) != spec.Events {
		t.Fatalf("trace has %d events, want %d", len(a), spec.Events)
	}

	other, err := GenerateTrace(DefaultChurnSpec(4, 6, 300, 0xDECAF))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds generated identical traces")
	}

	live := map[int64]bool{}
	var nextID int64
	kinds := map[string]int{}
	for i, req := range a {
		kinds[req.Op]++
		switch req.Op {
		case "join":
			if req.Budget < spec.MinBudget || req.Budget > spec.MaxBudget {
				t.Fatalf("event %d: join budget %d outside [%d, %d]", i, req.Budget, spec.MinBudget, spec.MaxBudget)
			}
			nextID++
			live[nextID] = true
		case "leave":
			if !live[req.ID] {
				t.Fatalf("event %d: leave names dead user %d", i, req.ID)
			}
			delete(live, req.ID)
		case "budget":
			if !live[req.ID] {
				t.Fatalf("event %d: budget names dead user %d", i, req.ID)
			}
			if req.Budget < spec.MinBudget || req.Budget > spec.MaxBudget {
				t.Fatalf("event %d: budget %d outside [%d, %d]", i, req.Budget, spec.MinBudget, spec.MaxBudget)
			}
		default:
			t.Fatalf("event %d: unexpected op %q", i, req.Op)
		}
	}
	// A 300-event birth–death trace at these rates exercises all three ops.
	for _, op := range []string{"join", "leave", "budget"} {
		if kinds[op] == 0 {
			t.Fatalf("trace has no %q events: %v", op, kinds)
		}
	}
}
