package core

import (
	"math"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

// referenceOptimalLoadWelfare is the pre-slab welfare DP kept verbatim (the
// per-row allocations, negInf tail sentinel and choice matrix of the
// original OptimalLoadWelfare) as the differential baseline for the
// slab-backed rewrite. Requires C >= 1 and total >= 0, which was the old
// code's implicit domain.
func referenceOptimalLoadWelfare(rate ratefn.Func, C, total int) (float64, []int) {
	negInf := math.Inf(-1)
	f := make([][]float64, C+1)
	choice := make([][]int, C)
	for c := range f {
		f[c] = make([]float64, total+1)
	}
	for t := 1; t <= total; t++ {
		f[C][t] = negInf // leftover radios are not allowed
	}
	for c := C - 1; c >= 0; c-- {
		choice[c] = make([]int, total+1)
		for t := 0; t <= total; t++ {
			best, bestL := negInf, 0
			for l := 0; l <= t; l++ {
				tail := f[c+1][t-l]
				if tail == negInf {
					continue
				}
				val := rate.Rate(l) + tail
				if val > best {
					best, bestL = val, l
				}
			}
			f[c][t] = best
			choice[c][t] = bestL
		}
	}
	loads := make([]int, C)
	t := total
	for c := 0; c < C; c++ {
		loads[c] = choice[c][t]
		t -= loads[c]
	}
	return f[0][total], loads
}

// TestWelfareDPMatchesReference pins the slab DP — both the workspace form
// and the one-shot wrapper — against the original implementation, value and
// chosen loads, bit for bit, across every rate family. The workspace is
// deliberately reused across all (C, total) shapes so stale slab contents
// from larger problems cannot leak into smaller ones.
func TestWelfareDPMatchesReference(t *testing.T) {
	ws := NewWorkspace()
	for _, rate := range differentialRates(t) {
		for C := 1; C <= 4; C++ {
			for total := 0; total <= 9; total++ {
				wantVal, wantLoads := referenceOptimalLoadWelfare(rate, C, total)
				gotVal, gotLoads := OptimalLoadWelfareInto(ws, rate, C, total)
				if gotVal != wantVal {
					t.Fatalf("%s C=%d total=%d: slab value %v, reference %v",
						rate.Name(), C, total, gotVal, wantVal)
				}
				if len(gotLoads) != C {
					t.Fatalf("%s C=%d total=%d: %d loads", rate.Name(), C, total, len(gotLoads))
				}
				for c := range wantLoads {
					if gotLoads[c] != wantLoads[c] {
						t.Fatalf("%s C=%d total=%d: slab loads %v, reference %v",
							rate.Name(), C, total, gotLoads, wantLoads)
					}
				}
				oneVal, oneLoads := OptimalLoadWelfare(rate, C, total)
				if oneVal != wantVal {
					t.Fatalf("%s C=%d total=%d: one-shot value %v, reference %v",
						rate.Name(), C, total, oneVal, wantVal)
				}
				for c := range wantLoads {
					if oneLoads[c] != wantLoads[c] {
						t.Fatalf("%s C=%d total=%d: one-shot loads %v, reference %v",
							rate.Name(), C, total, oneLoads, wantLoads)
					}
				}
			}
		}
	}
}

// TestOptimalLoadWelfareDegenerate covers the inputs the pre-slab code
// could not take without indexing a nil row: zero channels, zero totals and
// negative totals must come back as explicit values, never a panic.
func TestOptimalLoadWelfareDegenerate(t *testing.T) {
	rate := ratefn.NewTDMA(2)
	ws := NewWorkspace()

	if val, loads := OptimalLoadWelfareInto(ws, rate, 0, 0); val != 0 || len(loads) != 0 {
		t.Fatalf("C=0 total=0: got (%v, %v), want (0, [])", val, loads)
	}
	if val, loads := OptimalLoadWelfareInto(ws, rate, 0, 3); !math.IsInf(val, -1) || len(loads) != 0 {
		t.Fatalf("C=0 total=3: got (%v, %v), want (-Inf, [])", val, loads)
	}
	if val, loads := OptimalLoadWelfareInto(ws, rate, -1, 0); val != 0 || len(loads) != 0 {
		t.Fatalf("C=-1 total=0: got (%v, %v), want (0, [])", val, loads)
	}
	val, loads := OptimalLoadWelfareInto(ws, rate, 3, 0)
	if val != 0 || len(loads) != 3 {
		t.Fatalf("C=3 total=0: got (%v, %v), want (0, [0 0 0])", val, loads)
	}
	for c, l := range loads {
		if l != 0 {
			t.Fatalf("C=3 total=0: load[%d] = %d, want 0", c, l)
		}
	}
	val, loads = OptimalLoadWelfareInto(ws, rate, 3, -2)
	if !math.IsInf(val, -1) || len(loads) != 3 {
		t.Fatalf("C=3 total=-2: got (%v, %v), want (-Inf, [0 0 0])", val, loads)
	}
	for c, l := range loads {
		if l != 0 {
			t.Fatalf("C=3 total=-2: load[%d] = %d, want 0", c, l)
		}
	}

	// The one-shot wrapper takes the same path.
	if val, loads := OptimalLoadWelfare(rate, 0, 0); val != 0 || loads == nil || len(loads) != 0 {
		t.Fatalf("wrapper C=0 total=0: got (%v, %v), want (0, non-nil [])", val, loads)
	}
	if val, _ := OptimalLoadWelfare(rate, 0, 5); !math.IsInf(val, -1) {
		t.Fatalf("wrapper C=0 total=5: got %v, want -Inf", val)
	}
	if val, loads := OptimalLoadWelfare(rate, 2, -1); !math.IsInf(val, -1) || len(loads) != 2 {
		t.Fatalf("wrapper C=2 total=-1: got (%v, %v), want (-Inf, [0 0])", val, loads)
	}
	// A nil workspace allocates its own.
	if val, _ := OptimalLoadWelfareInto(nil, rate, 2, 3); val != referenceFirst(rate, 2, 3) {
		t.Fatalf("nil workspace gave %v", val)
	}
}

func referenceFirst(rate ratefn.Func, C, total int) float64 {
	v, _ := referenceOptimalLoadWelfare(rate, C, total)
	return v
}

// TestOptimalLoadWelfareIntoAliasing: the returned loads alias the
// workspace, so the next call overwrites them — documented behaviour the
// one-shot wrappers must defend against by copying.
func TestOptimalLoadWelfareIntoAliasing(t *testing.T) {
	rate := ratefn.Harmonic{R0: 2, Alpha: 0.6}
	ws := NewWorkspace()
	_, first := OptimalLoadWelfareInto(ws, rate, 3, 6)
	got := append([]int(nil), first...)
	OptimalLoadWelfareInto(ws, rate, 3, 0)
	if first[0] != 0 && first[0] == got[0] {
		// Loads for total=0 are all zero; if the first result had a nonzero
		// leading load, the buffer must now show the overwrite.
		t.Fatalf("Into result did not alias the workspace: %v still %v", first, got)
	}
	_, fresh := OptimalLoadWelfare(rate, 3, 6)
	for c := range fresh {
		if fresh[c] != got[c] {
			t.Fatalf("one-shot loads %v, want %v", fresh, got)
		}
	}
}
