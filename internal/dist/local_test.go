package dist

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// runOverPipes is the pipe-based RunLocal that the direct-call RunLocal
// replaced, kept as the differential reference: one goroutine and one
// net.Pipe per agent, JSON frames and per-message deadlines.
func runOverPipes(g *core.Game, policies []Policy, opts ...CoordinatorOption) (*LocalResult, error) {
	if g == nil {
		return nil, fmt.Errorf("dist: nil game")
	}
	if len(policies) != g.Users() {
		return nil, fmt.Errorf("dist: %d policies for %d users", len(policies), g.Users())
	}
	co, err := NewCoordinator(g, opts...)
	if err != nil {
		return nil, err
	}

	conns := make([]net.Conn, g.Users())
	clients := make([]net.Conn, g.Users())
	agents := make([]AgentResult, g.Users())
	agentErrs := make([]error, g.Users())
	var wg sync.WaitGroup
	for i := range policies {
		conns[i], clients[i] = net.Pipe()
		wg.Add(1)
		go func(i int, conn net.Conn, policy Policy) {
			defer wg.Done()
			agents[i], agentErrs[i] = RunAgent(conn, policy, co.timeout)
		}(i, clients[i], policies[i])
	}
	a, stats, runErr := co.Run(conns)
	// Disarm every deadline before closing any end. A net.Pipe deadline is
	// a pending timer that references the pipe, Close does not stop it, and
	// a pipe refuses SetDeadline once either end is closed — so a finished
	// ring's pipes would otherwise stay reachable for the whole timeout.
	// No end is closed yet (agents leave theirs to this function), so the
	// calls cannot fail.
	for i := range conns {
		_ = conns[i].SetDeadline(time.Time{})
		_ = clients[i].SetDeadline(time.Time{})
	}
	for _, conn := range conns {
		conn.Close() // unblocks agents if the coordinator bailed early
	}
	wg.Wait()
	for _, conn := range clients {
		conn.Close()
	}
	if runErr != nil {
		return nil, runErr
	}
	for i, err := range agentErrs {
		if err != nil {
			return nil, fmt.Errorf("dist: agent %d: %w", i, err)
		}
	}
	return &LocalResult{Alloc: a, Stats: stats, Agents: agents}, nil
}

// ringCase is one seeded point of the differential grid.
type ringCase struct {
	users, channels, radios int
	rate                    RateSpec
	mix                     string
	maxRounds               int // 0: the coordinator default
	seed                    uint64
}

func (rc ringCase) String() string {
	return fmt.Sprintf("%dx%dx%d/%s/%s/rounds%d", rc.users, rc.channels, rc.radios, rc.rate.Kind, rc.mix, rc.maxRounds)
}

func (rc ringCase) game(t *testing.T) *core.Game {
	t.Helper()
	rate, err := rc.rate.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGame(rc.users, rc.channels, rc.radios, rate)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// policies builds a fresh policy set; equal seeds give equal sets.
func (rc ringCase) policies(t *testing.T, g *core.Game) []Policy {
	t.Helper()
	rng := des.NewRNG(rc.seed)
	out := make([]Policy, g.Users())
	for i := range out {
		name := rc.mix
		if rc.mix == "mixed" {
			name = []string{PolicyGreedy, PolicyGreedyRandom, PolicyBestResponse}[i%3]
		}
		p, err := buildPolicy(name, g.Rate(), rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func (rc ringCase) opts() []CoordinatorOption {
	if rc.maxRounds > 0 {
		return []CoordinatorOption{WithMaxRounds(rc.maxRounds)}
	}
	return nil
}

// diffGrid draws the differential grid from a fixed seed: every rate
// family × policy mix × round cap, with 3–8 channels and 1–4 radios.
func diffGrid() []ringCase {
	rng := des.NewRNG(2006)
	var out []ringCase
	for _, rate := range []RateSpec{
		{Kind: "tdma", R0: 1},
		{Kind: "harmonic", R0: 1, Param: 0.4},
		{Kind: "geometric", R0: 1, Param: 0.7},
	} {
		for _, mix := range []string{PolicyGreedy, PolicyGreedyRandom, PolicyBestResponse, "mixed"} {
			for _, maxRounds := range []int{1, 0} {
				for draw := 0; draw < 2; draw++ {
					channels := 3 + rng.Intn(6)
					radios := 1 + rng.Intn(4)
					if radios > channels {
						radios = channels
					}
					out = append(out, ringCase{
						users: 2 + rng.Intn(7), channels: channels, radios: radios,
						rate: rate, mix: mix, maxRounds: maxRounds, seed: rng.Uint64(),
					})
				}
			}
		}
	}
	return out
}

// sameResult compares two LocalResults field by field: allocation, stats
// (Messages included) and every agent's view.
func sameResult(t *testing.T, desc string, got, want *LocalResult) {
	t.Helper()
	if !got.Alloc.Equal(want.Alloc) {
		t.Fatalf("%s: allocation\n%v\nwant\n%v", desc, got.Alloc, want.Alloc)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", desc, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Agents, want.Agents) {
		t.Fatalf("%s: agents\n%+v\nwant\n%+v", desc, got.Agents, want.Agents)
	}
}

// TestRunLocalMatchesPipes pins the direct-call ring to the pipe-based one
// over a seeded grid: the same allocation, stats and agent views.
func TestRunLocalMatchesPipes(t *testing.T) {
	for _, rc := range diffGrid() {
		g := rc.game(t)
		want, err := runOverPipes(g, rc.policies(t, g), rc.opts()...)
		if err != nil {
			t.Fatalf("%v: pipes: %v", rc, err)
		}
		got, err := RunLocal(g, rc.policies(t, g), rc.opts()...)
		if err != nil {
			t.Fatalf("%v: %v", rc, err)
		}
		sameResult(t, rc.String(), got, want)
	}
}

// TestRunLocalMatchesTCP runs one grid case with every agent on its own
// loopback TCP connection, the way examples/distributed does.
func TestRunLocalMatchesTCP(t *testing.T) {
	rc := ringCase{users: 6, channels: 5, radios: 3, rate: RateSpec{Kind: "harmonic", R0: 1, Param: 0.3}, mix: "mixed", seed: 7}
	g := rc.game(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	policies := rc.policies(t, g)
	conns := make([]net.Conn, g.Users())
	agents := make([]AgentResult, g.Users())
	agentErrs := make([]error, g.Users())
	var wg sync.WaitGroup
	for i := range conns {
		client, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		// Dialling and accepting in step pairs conns[i] with agent i.
		if conns[i], err = ln.Accept(); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agents[i], agentErrs[i] = RunAgent(client, policies[i], 10*time.Second)
		}(i)
	}
	co, err := NewCoordinator(g)
	if err != nil {
		t.Fatal(err)
	}
	a, stats, err := co.Run(conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	want, err := RunLocal(g, rc.policies(t, g))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "tcp", &LocalResult{Alloc: a, Stats: stats, Agents: agents}, want)
}

// scribblePolicy plays best responses and then does everything a careless
// device could to the frames it was handed: it overwrites its ext and
// current arguments after proposing, and overwrites each row it returned
// on its next turn.
type scribblePolicy struct {
	inner    BestResponsePolicy
	returned [][]int
}

func (p *scribblePolicy) Propose(ext, current []int, radios int) ([]int, error) {
	p.scribble()
	row, err := p.inner.Propose(ext, current, radios)
	if err != nil {
		return nil, err
	}
	out := append([]int(nil), row...)
	for c := range ext {
		ext[c], current[c] = 999, 999
	}
	p.returned = append(p.returned, out)
	return out, nil
}

func (p *scribblePolicy) scribble() {
	for _, row := range p.returned {
		for c := range row {
			row[c] = 777
		}
	}
}

// TestRunLocalIsolatesFrames: with no wire in between, a policy that
// mutates its arguments and the rows it returned still cannot reach the
// coordinator's allocation, and one agent's final matrix is not another's.
func TestRunLocalIsolatesFrames(t *testing.T) {
	r := ratefn.Harmonic{R0: 1, Alpha: 0.3}
	g, err := core.NewGame(6, 5, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	build := func() []Policy {
		return UniformPolicies(g.Users(), func(int) Policy {
			return &scribblePolicy{inner: BestResponsePolicy{Rate: r}}
		})
	}
	want, err := runOverPipes(g, build())
	if err != nil {
		t.Fatal(err)
	}
	policies := build()
	got, err := RunLocal(g, policies)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range policies {
		p.(*scribblePolicy).scribble()
	}
	sameResult(t, "scribbled", got, want)
	ne, err := g.IsNashEquilibrium(got.Alloc)
	if err != nil || !ne {
		t.Fatalf("scribbling reached the ring: NE = %v, %v", ne, err)
	}
	got.Agents[0].Matrix[0][0] = 555
	if got.Agents[1].Matrix[0][0] == 555 || got.Alloc.Matrix()[0][0] == 555 {
		t.Fatal("agents share their final matrix")
	}
}

// keepPolicy plays best responses but breaks Propose's argument lifetime:
// it keeps the ext and current slices of its first call and writes over
// them on every later call, once it has proposed. Over a wire the kept
// slices are a dead frame's; in process they are the link's inbound
// buffer, which must not carry the writes to the coordinator.
type keepPolicy struct {
	inner    BestResponsePolicy
	ext, cur []int
	calls    int
}

func (p *keepPolicy) Propose(ext, current []int, radios int) ([]int, error) {
	p.calls++
	if p.ext == nil {
		p.ext, p.cur = ext, current
	}
	row, err := p.inner.Propose(ext, current, radios)
	if err != nil {
		return nil, err
	}
	out := append([]int(nil), row...)
	if p.calls > 1 {
		for c := range p.ext {
			p.ext[c], p.cur[c] = 888+p.calls, 888+p.calls
		}
	}
	return out, nil
}

// TestRunLocalIgnoresKeptArguments: a policy that keeps its first call's
// arguments and writes to them later leaves the allocation, the stats and
// every agent's matrix as they are over pipes.
func TestRunLocalIgnoresKeptArguments(t *testing.T) {
	for _, r := range []ratefn.Func{ratefn.NewTDMA(1), ratefn.Harmonic{R0: 1, Alpha: 0.3}} {
		g, err := core.NewGame(6, 5, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		build := func() []Policy {
			return UniformPolicies(g.Users(), func(int) Policy {
				return &keepPolicy{inner: BestResponsePolicy{Rate: r}}
			})
		}
		want, err := runOverPipes(g, build())
		if err != nil {
			t.Fatal(err)
		}
		policies := build()
		got, err := RunLocal(g, policies)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			if p.(*keepPolicy).calls < 2 {
				t.Fatalf("%s: a policy ran %d times; the test needs later calls", r.Name(), p.(*keepPolicy).calls)
			}
		}
		sameResult(t, "kept arguments/"+r.Name(), got, want)
	}
}

// TestRunLocalAllocs pins the heap work of BenchmarkDistributedProtocol's
// ring: 8 best-response users on 6 channels with 3 radios each, TDMA.
// Frames travel in per-link buffers, the DP borrows pooled workspaces and
// a quiet token visit allocates nothing; a deep copy of every frame, or a
// workspace per device, breaks the bound.
func TestRunLocalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool and adds allocations")
	}
	r := ratefn.NewTDMA(1)
	g, err := core.NewGame(8, 6, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		policies := UniformPolicies(g.Users(), func(int) Policy { return &BestResponsePolicy{Rate: r} })
		res, err := RunLocal(g, policies)
		if err != nil || !res.Stats.Converged {
			t.Fatalf("ring: converged %v, err %v", res != nil && res.Stats.Converged, err)
		}
	}
	run() // fill the workspace pool
	const bound = 120
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("%.1f allocations per ring", allocs)
	if allocs > bound {
		t.Fatalf("RunLocal made %.0f allocations per ring, want <= %d", allocs, bound)
	}
}

type failPolicy struct{}

var errPolicyFailed = errors.New("policy failed")

func (failPolicy) Propose([]int, []int, int) ([]int, error) { return nil, errPolicyFailed }

// TestRunLocalReportsPolicyError: a failing policy ends the ring at once
// with its own error, naming the user, instead of stalling the coordinator
// until its message timeout.
func TestRunLocalReportsPolicyError(t *testing.T) {
	g := testGame(t, 2, 3, 1)
	start := time.Now()
	_, err := RunLocal(g, []Policy{&GreedyPolicy{}, failPolicy{}})
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("RunLocal took %v to report a failing policy", elapsed)
	}
	if !errors.Is(err, errPolicyFailed) {
		t.Fatalf("err = %v, want it to wrap %v", err, errPolicyFailed)
	}
	if !strings.Contains(err.Error(), "user 1") {
		t.Fatalf("err = %v, want it to name user 1", err)
	}
}

// TestAgentRefusesMalformedFrames feeds the agent state machine frame
// sequences that break the hello's dimensions or the protocol order; each
// must end in an error at the last frame, never in a panic.
func TestAgentRefusesMalformedFrames(t *testing.T) {
	hello := message{Type: msgHello, User: 0, Channels: 2, Radios: 1}
	token := func(loads, row []int) message { return message{Type: msgToken, Loads: loads, Row: row} }
	for _, tc := range []struct {
		desc   string
		frames []message
		want   string
	}{
		{"token before hello", []message{token([]int{0, 0}, []int{0, 0})}, `want "hello"`},
		{"zero channels", []message{{Type: msgHello, Channels: 0, Radios: 1}}, "radios"},
		{"zero radios", []message{{Type: msgHello, Channels: 2, Radios: 0}}, "radios"},
		{"more radios than channels", []message{{Type: msgHello, Channels: 2, Radios: 3}}, "radios"},
		// A valid hello whose DP would cost seconds and tens of MB per
		// token: refused before any token arrives.
		{"DP past the bound", []message{{Type: msgHello, Channels: 2000, Radios: 2000}}, "DP bound channels·(radios+1)² <= 4194304"},
		{"radios past the bound", []message{{Type: msgHello, Channels: 1 << 62, Radios: 1 << 62}}, "DP bound"},
		{"second hello", []message{hello, hello}, "unexpected frame"},
		{"short loads", []message{hello, token([]int{1}, []int{0, 1})}, "1 loads"},
		{"short row", []message{hello, token([]int{1, 0}, []int{0})}, "row has 1 channels"},
		{"long row", []message{hello, token([]int{1, 0}, []int{0, 0, 0})}, "row has 3 channels"},
		{"negative load", []message{hello, token([]int{-1, 0}, []int{0, 0})}, "negative load"},
		{"negative row", []message{hello, token([]int{0, 0}, []int{0, -1})}, "negative radio count"},
		{"row over budget", []message{hello, token([]int{0, 0}, []int{1, 1})}, "budget"},
		{"short done row", []message{hello, {Type: msgDone, Matrix: [][]int{{0, 1}, {1}}}}, "matrix row 1"},
		{"row frame to agent", []message{hello, {Type: msgRow, Row: []int{0, 1}}}, "unexpected frame"},
		{"ack frame to agent", []message{hello, {Type: msgAck}}, "unexpected frame"},
		{"unknown frame", []message{hello, {Type: "bogus"}}, "unexpected frame"},
		{"token after done", []message{hello, {Type: msgDone, Matrix: [][]int{{0, 1}}}, token([]int{0, 0}, []int{0, 1})}, "after done"},
	} {
		ag := agent{policy: &BestResponsePolicy{Rate: ratefn.NewTDMA(1)}}
		for i, m := range tc.frames {
			_, err := ag.handle(&m)
			last := i == len(tc.frames)-1
			if !last && err != nil {
				t.Fatalf("%s: frame %d refused early: %v", tc.desc, i, err)
			}
			if last && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("%s: err = %v, want one mentioning %q", tc.desc, err, tc.want)
			}
		}
	}
}

// TestRunAgentRefusesShortLoads replays over a pipe the token that used to
// panic RunAgent (index out of range in utilityAgainst): loads shorter than
// the announced channels.
func TestRunAgentRefusesShortLoads(t *testing.T) {
	coord, end := net.Pipe()
	defer coord.Close()
	defer end.Close()
	go func() {
		_, _ = coord.Write([]byte(`{"type":"hello","user":0,"channels":2,"radios":1}` + "\n" +
			`{"type":"token","loads":[1],"row":[0,1]}` + "\n"))
	}()
	_, err := RunAgent(end, &BestResponsePolicy{Rate: ratefn.NewTDMA(1)}, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "1 loads") {
		t.Fatalf("err = %v, want the short loads refused", err)
	}
}
