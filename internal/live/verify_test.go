package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// refVerifyNE is the per-user NE verifier the grouped verifyAlloc must
// agree with: every user runs its own exact DP, serially.
func refVerifyNE(g *core.Game, a *core.Alloc) bool {
	if g == nil {
		return true
	}
	ws := core.NewWorkspace()
	for i := 0; i < g.Users(); i++ {
		current := g.Utility(a, i)
		_, best, err := g.BestResponseInto(ws, a, i)
		if err != nil || best > current+core.DefaultEps {
			return false
		}
	}
	return true
}

// andDeviationNE is the AND over every user of the deviation test's
// verdict, each user in its own fresh workspace.
func andDeviationNE(t *testing.T, g *core.Game, a *core.Alloc) bool {
	t.Helper()
	ne := true
	for i := 0; i < g.Users(); i++ {
		_, _, improves, err := g.DeviationInto(core.NewWorkspace(), a, i, core.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		ne = ne && !improves
	}
	return ne
}

// worsen stacks every radio of user i on the channel carrying the most
// external load, a placement no better than its equilibrium row.
func worsen(t testing.TB, a *core.Alloc, i int) {
	t.Helper()
	target := 0
	for c := 1; c < a.Channels(); c++ {
		if a.Load(c)-a.Radios(i, c) > a.Load(target)-a.Radios(i, target) {
			target = c
		}
	}
	row := make([]int, a.Channels())
	row[target] = a.UserTotal(i)
	if err := a.SetRow(i, row); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyGroupedDifferential pins the verifier grouped by the (budget,
// row) class index against the per-user references (each user's DP, and
// the AND of each user's deviation test) on every event of seeded churn
// traces in the many-users, few-channels regime, at several worker counts,
// and on a perturbed copy of each allocation (one row moved to a worse
// placement, grouped by a fresh index) so that false verdicts must agree
// too. When the perturbed user improves, its certificate must fail, so the
// refutation comes from the fold phase. The live game's invariant check,
// class index included, runs after every event.
func TestVerifyGroupedDifferential(t *testing.T) {
	users, events := 256, 200
	if testing.Short() {
		users, events = 64, 60
	}
	for _, seed := range []uint64{3, 17, 2006} {
		s, err := NewServer(Config{Channels: 16, Rate: ratefn.NewTDMA(54), Workers: 1, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		trace, err := GenerateTrace(DefaultChurnSpec(16, users, users+events, seed))
		if err != nil {
			t.Fatal(err)
		}
		rng := des.NewRNG(seed)
		ws := core.NewWorkspace()
		falses := 0
		for ev, req := range trace {
			resp := s.Apply(req)
			if resp.Update == nil {
				t.Fatalf("seed %d event %d: %+v", seed, ev, resp)
			}
			lg := s.Game()
			if err := lg.Check(); err != nil {
				t.Fatalf("seed %d event %d: %v", seed, ev, err)
			}
			g, a := lg.Frozen(), lg.Alloc()
			if want := refVerifyNE(g, a); resp.Update.Verified != want {
				t.Fatalf("seed %d event %d: verified %v, reference %v", seed, ev, resp.Update.Verified, want)
			}
			if g == nil {
				continue
			}
			if !andDeviationNE(t, g, a) {
				t.Fatalf("seed %d event %d: a user's deviation test refutes the verified equilibrium", seed, ev)
			}
			bad := a.Clone()
			deviator := rng.Intn(bad.Users())
			worsen(t, bad, deviator)
			badClasses := core.NewClasses(g, bad)
			want := refVerifyNE(g, bad)
			if and := andDeviationNE(t, g, bad); and != want {
				t.Fatalf("seed %d event %d: AND of deviation tests %v, DP reference %v", seed, ev, and, want)
			}
			if !want {
				if _, _, improves, _ := g.DeviationInto(ws, bad, deviator, core.DefaultEps); improves {
					if g.CertifiedQuiet(ws, bad, deviator, core.DefaultEps) {
						t.Fatalf("seed %d event %d: improving user %d certified quiet", seed, ev, deviator)
					}
					falses++
				}
			}
			for _, workers := range []int{1, 2, 8} {
				if got := verifyAlloc(g, a, lg.Classes(), workers); !got {
					t.Fatalf("seed %d event %d: workers=%d refuted the equilibrium", seed, ev, workers)
				}
				if got := verifyAlloc(g, bad, badClasses, workers); got != want {
					t.Fatalf("seed %d event %d: workers=%d perturbed verdict %v, reference %v", seed, ev, workers, got, want)
				}
			}
		}
		if falses == 0 {
			t.Fatalf("seed %d: no perturbed allocation had an improving, uncertified deviator", seed)
		}
	}
}

// TestVerifyWithoutPlane runs the verifier on a game whose rate view has
// no share plane (16 channels, budgets of 16 and enough users that the
// plane would pass its cap), where the certificate decides nothing and
// every class representative reaches the fold phase. At workers 1, 2 and 8
// the verdict on an equilibrium (every user one radio per channel) and on
// a copy with one user's radios stacked on one channel equals the AND of
// the per-user deviation tests.
func TestVerifyWithoutPlane(t *testing.T) {
	const C, users = 16, 15500
	g, err := core.NewGame(users, C, C, ratefn.NewTDMA(54))
	if err != nil {
		t.Fatal(err)
	}
	ne := g.NewEmptyAlloc()
	ones := make([]int, C)
	for c := range ones {
		ones[c] = 1
	}
	for i := 0; i < users; i++ {
		if err := ne.SetRow(i, ones); err != nil {
			t.Fatal(err)
		}
	}
	bad := ne.Clone()
	worsen(t, bad, users/2)
	ws := core.NewWorkspace()
	for _, tc := range []struct {
		name string
		a    *core.Alloc
		want bool
	}{{"equilibrium", ne, true}, {"stacked", bad, false}} {
		if err := g.CheckAlloc(tc.a); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < users; i++ {
			if g.CertifiedQuiet(ws, tc.a, i, core.DefaultEps) {
				t.Fatalf("%s: user %d certified without a share plane", tc.name, i)
			}
		}
		if and := andDeviationNE(t, g, tc.a); and != tc.want {
			t.Fatalf("%s: AND of deviation tests %v, want %v", tc.name, and, tc.want)
		}
		cls := core.NewClasses(g, tc.a)
		for _, workers := range []int{1, 2, 8} {
			if got := verifyAlloc(g, tc.a, cls, workers); got != tc.want {
				t.Fatalf("%s: workers=%d verdict %v, want %v", tc.name, workers, got, tc.want)
			}
		}
	}
}

// goldenRequests rebuilds the request stream behind allocd's committed
// 200-event golden transcript from its update frames: ops and ids are
// echoed, and join and budget requests are recovered from the change in
// deployed radios (every budget is fully deployed on arrival).
func goldenRequests(t testing.TB) []Request {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "cmd", "allocd", "testdata", "churn_4c_200ev_seed7.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var reqs []Request
	budgets := map[int64]int{}
	radios := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		u := resp.Update
		if u == nil {
			continue
		}
		delta := u.Radios - radios
		radios = u.Radios
		switch u.Op {
		case "join":
			budgets[u.ID] = delta
			reqs = append(reqs, Request{Op: "join", Budget: delta})
		case "leave":
			delete(budgets, u.ID)
			reqs = append(reqs, Request{Op: "leave", ID: u.ID})
		case "budget":
			budgets[u.ID] += delta
			reqs = append(reqs, Request{Op: "budget", ID: u.ID, Budget: budgets[u.ID]})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestGoldenRequestsMatchGenerator pins the fuzz seed reconstruction: the
// requests recovered from the golden are the generator's trace.
func TestGoldenRequestsMatchGenerator(t *testing.T) {
	spec, err := ParseChurnSpec("4,6,200,7")
	if err != nil {
		t.Fatal(err)
	}
	want, err := GenerateTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRequests(t)
	if len(got) != len(want) {
		t.Fatalf("recovered %d requests, generator has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: recovered %+v, generator %+v", i, got[i], want[i])
		}
	}
}

// maxFuzzFrames bounds the frames one fuzz input applies, so an input's
// cost stays small whatever its length.
const maxFuzzFrames = 96

// FuzzLiveApply feeds NDJSON request frames through Server.Apply on a
// 4-channel game. No frame may panic; after every frame the live game
// passes its invariant check, and every update's Verified verdict equals
// the per-user reference verifier's.
func FuzzLiveApply(f *testing.F) {
	reqs := goldenRequests(f)
	for _, n := range []int{len(reqs), 40, 8} {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range reqs[:n] {
			if err := enc.Encode(r); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{\"op\":\"join\",\"budget\":4}\n{\"op\":\"join\",\"budget\":4}\n{\"op\":\"budget\",\"id\":1,\"budget\":1}\n"))
	f.Add([]byte("{\"op\":\"leave\",\"id\":9}\n{\"op\":\"join\",\"budget\":-3}\n{\"op\":\"stats\"}\nnot json\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := NewServer(Config{Channels: 4, Rate: ratefn.NewTDMA(54), Workers: 2, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		for _, line := range bytes.Split(in, []byte("\n")) {
			if frames == maxFuzzFrames {
				break
			}
			var req Request
			if json.Unmarshal(line, &req) != nil {
				continue
			}
			frames++
			resp := s.Apply(req)
			lg := s.Game()
			if err := lg.Check(); err != nil {
				t.Fatalf("frame %d %+v: %v", frames, req, err)
			}
			if resp.Update != nil {
				if want := refVerifyNE(lg.Frozen(), lg.Alloc()); resp.Update.Verified != want {
					t.Fatalf("frame %d %+v: verified %v, reference %v", frames, req, resp.Update.Verified, want)
				}
			}
		}
	})
}
