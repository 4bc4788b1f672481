package live

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/multiradio/chanalloc/internal/workload"
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
	for _, bad := range []string{"", "4", "4,5", "4,5,6,7,8", "x,5,6", "4,5,0", "0,5,6", "4,-1,6", "4,5,6,-1",
		"4,6,9000000000000000000,1", "4,9000000000000000000,6", "2,2097152,1", "9223372036854775807,1,1"} {
		if _, err := ParseChurnSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// The cell bound is inclusive: (initial+events)·channels == MaxCells passes.
	if _, err := ParseChurnSpec("2,2097151,1"); err != nil {
		t.Errorf("spec at the cell bound refused: %v", err)
	}
	_, err = ParseChurnSpec("4,6,9000000000000000000,1")
	if !errors.Is(err, workload.ErrTooLarge) {
		t.Errorf("oversized spec: error %v, want one wrapping workload.ErrTooLarge", err)
	}
}

// TestChurnSpecValidateRejectsNaN: a NaN rate passes a plain "<= 0" test,
// and its NaN delays would leave the trace's event order undefined.
func TestChurnSpecValidateRejectsNaN(t *testing.T) {
	for name, set := range map[string]func(*ChurnSpec){
		"arrival":  func(s *ChurnSpec) { s.ArrivalRate = math.NaN() },
		"lifetime": func(s *ChurnSpec) { s.MeanLifetime = math.NaN() },
		"budget":   func(s *ChurnSpec) { s.BudgetRate = math.NaN() },
	} {
		spec := DefaultChurnSpec(4, 6, 50, 1)
		set(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s rate NaN passed Validate", name)
		}
		if _, err := GenerateTrace(spec); err == nil {
			t.Errorf("%s rate NaN generated a trace", name)
		}
	}
}

// FuzzParseChurnSpec feeds arbitrary strings to allocd's churn-spec
// grammar. Nothing may panic, every accepted spec passes Validate and
// keeps (initial+events)·channels within workload.MaxCells, and a small
// accepted spec generates exactly its number of requests.
func FuzzParseChurnSpec(f *testing.F) {
	for _, s := range []string{"4,6,200,7", "8, 5, 50", "16,1024,7024,2006", "0,5,6", "4,-1,6", "4,5,6,-1", "x", "",
		"4,6,9000000000000000000,1"} {
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
		// Counts up to 2^22 sum exactly; the float product cannot wrap.
		if spec.Initial > workload.MaxCells || spec.Events > workload.MaxCells ||
			float64(spec.Initial+spec.Events)*float64(spec.Channels) > workload.MaxCells {
			t.Fatalf("%q parsed to %+v: (initial+events)·channels exceeds %d", s, spec, workload.MaxCells)
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

// TestGenerateTracePinned pins the exact bytes of GenerateTrace for the
// shapes the churn benchmark workloads and allocd serve, plus a spec with no
// initial users and one with budget renegotiation switched off. The SHA-256
// is over the JSON encoding of the whole trace.
func TestGenerateTracePinned(t *testing.T) {
	noBudget := DefaultChurnSpec(4, 6, 3000, 11)
	noBudget.BudgetRate = 0
	pair := DefaultChurnSpec(2, 3, 300, 5)
	for _, tc := range []struct {
		spec ChurnSpec
		want string
	}{
		{DefaultChurnSpec(4, 8, 20000, 2006), "d1585362317e1678bc6ef371087cb774f264bdb706a01ab3e5d8323676b8aa0c"},
		{DefaultChurnSpec(16, 1024, 5024, 2006), "5439c0521d54215c5c226ff98e232b41593487022bcdcd58d3a43b90af921439"},
		{DefaultChurnSpec(4, 0, 500, 7), "e6e5115fce365d9707222888489497fd9d1e80fb5329093799754cee4af3ca46"},
		{noBudget, "97678b67306526ac31ac8a5783c7c0bd4d2e11d5492fc7e4ce137dfe571324e9"},
		{pair, "fe45af7c3b686e6ca032e94d69313be6741dead1722c09ff15450d3e3afc5051"},
	} {
		trace, err := GenerateTrace(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(trace)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want {
			t.Errorf("%+v: trace sha256 %s, want %s", tc.spec, got, tc.want)
		}
	}
}
