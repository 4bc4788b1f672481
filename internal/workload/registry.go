package workload

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/dynamics"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Generator builds a scenario instance. params is the text after the first
// ':' of the requested name ("" for plain names); r is the rate function the
// caller wants the game built on.
type Generator func(params string, r ratefn.Func) (*Scenario, error)

// Family describes one registered scenario family for usage listings.
type Family struct {
	// Name is the base name ("fig4") or family prefix ("random").
	Name string
	// Usage shows the full grammar, e.g. "random:N,C,k[,seed]".
	Usage string
	// Description says what the scenario models.
	Description string
}

var (
	regMu    sync.RWMutex
	registry = map[string]Family{}
	regGen   = map[string]Generator{}
)

// Register adds a scenario family to the registry. The name must not
// contain ':' (it is the prefix before any parameters) and must be new.
// The registry is open: callers outside this package can plug in their own
// workloads and resolve them through ByName.
func Register(f Family, gen Generator) error {
	if f.Name == "" || strings.Contains(f.Name, ":") {
		return fmt.Errorf("workload: invalid scenario name %q", f.Name)
	}
	if gen == nil {
		return fmt.Errorf("workload: scenario %q has no generator", f.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regGen[f.Name]; dup {
		return fmt.Errorf("workload: scenario %q already registered", f.Name)
	}
	registry[f.Name] = f
	regGen[f.Name] = gen
	return nil
}

// mustRegister is Register for the built-in families, where a failure is a
// programming error.
func mustRegister(f Family, gen Generator) {
	if err := Register(f, gen); err != nil {
		panic(err)
	}
}

// ByName resolves a scenario: the text before the first ':' selects the
// family, the rest is passed to its generator ("fig4", "random:8,6,3",
// "hetero:6,4,4,2,1").
func ByName(name string, r ratefn.Func) (*Scenario, error) {
	base, params := name, ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		base, params = name[:i], name[i+1:]
	}
	regMu.RLock()
	gen, ok := regGen[base]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown scenario %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	s, err := gen(params, r)
	if err != nil {
		return nil, fmt.Errorf("workload: scenario %q: %w", name, err)
	}
	return s, nil
}

// Names lists the registered scenario families in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(regGen))
	for name := range regGen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Families lists the registered families with usage and description, sorted
// by name — the source of CLI usage text.
func Families() []Family {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Family, 0, len(registry))
	for _, f := range registry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// fixed wraps a parameterless scenario constructor as a Generator.
func fixed(build func(r ratefn.Func) (*Scenario, error)) Generator {
	return func(params string, r ratefn.Func) (*Scenario, error) {
		if params != "" {
			return nil, fmt.Errorf("takes no parameters, got %q", params)
		}
		return build(r)
	}
}

func init() {
	mustRegister(Family{
		Name:        "fig1",
		Usage:       "fig1",
		Description: "Paper Figures 1-2: worked non-NE example, |N|=4, k=4, |C|=5",
	}, fixed(Figure1))
	mustRegister(Family{
		Name:        "fig4",
		Usage:       "fig4",
		Description: "Paper Figure 4: NE with exception user u1, |N|=7, k=4, |C|=6",
	}, fixed(Figure4))
	mustRegister(Family{
		Name:        "fig5",
		Usage:       "fig5",
		Description: "Paper Figure 5: NE with no exception user, |N|=4, k=4, |C|=6",
	}, fixed(Figure5))
	mustRegister(Family{
		Name:        "random",
		Usage:       "random:N,C,k[,seed]",
		Description: "N users with k radios over C channels, random full-deployment start",
	}, generateRandom)
	mustRegister(Family{
		Name:        "hetero",
		Usage:       "hetero:C,k1,k2,...",
		Description: "heterogeneous radio budgets k_i over C channels (beyond the paper's uniform k)",
	}, generateHetero)
	mustRegister(Family{
		Name:        "bistritz",
		Usage:       "bistritz:N,C[,seed]",
		Description: "N single-radio users over C >= N channels, random start; interference-free target regime (arXiv:1603.03956)",
	}, generateBistritz)
	mustRegister(Family{
		Name:        "cogmoo",
		Usage:       "cogmoo:N,C[,seed]",
		Description: "N single-radio secondary users over C licensed channels, C < N allowed, random start (arXiv:2004.05767)",
	}, generateCogMOO)
	mustRegister(Family{
		Name:        "mesh",
		Usage:       "mesh[:routers,channels,radios]",
		Description: "mesh-backhaul routers in one collision domain, naive static start pinned",
	}, generateMesh)
	mustRegister(Family{
		Name:        "cognitive",
		Usage:       "cognitive[:users,channels,radios]",
		Description: "secondary users entering a band and re-allocating selfishly",
	}, generateCognitive)
}

// MaxCells bounds users·channels for every parametric family. The
// strategy matrix holds one int per cell and the per-user rows and objective
// matrices scale with it too, so the bound caps a scenario's memory (at
// 1<<22 cells, under 300 MB in the worst shape) before anything is
// allocated.
const MaxCells = 1 << 22

// ErrTooLarge reports a scenario whose users·channels exceeds MaxCells.
var ErrTooLarge = errors.New("scenario too large")

// CheckCells refuses users·channels > MaxCells without overflowing, with
// an error wrapping ErrTooLarge; chanalloc applies it to its game flags.
// Non-positive dimensions pass: the game constructors name those.
func CheckCells(users, channels int) error {
	if users > 0 && channels > 0 && users > MaxCells/channels {
		return fmt.Errorf("%w: %d users x %d channels exceeds %d cells",
			ErrTooLarge, users, channels, MaxCells)
	}
	return nil
}

// parseInts parses a comma-separated list of integers.
func parseInts(params string) ([]int, error) {
	if params == "" {
		return nil, nil
	}
	parts := strings.Split(params, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// generateRandom builds the random:N,C,k[,seed] family: a fixed-dimension
// game with a pinned uniformly random full-deployment allocation.
func generateRandom(params string, r ratefn.Func) (*Scenario, error) {
	vals, err := parseInts(params)
	if err != nil {
		return nil, err
	}
	if len(vals) != 3 && len(vals) != 4 {
		return nil, fmt.Errorf("want random:N,C,k[,seed], got %d parameters", len(vals))
	}
	seed := uint64(1)
	if len(vals) == 4 {
		if vals[3] < 0 {
			return nil, fmt.Errorf("negative seed %d", vals[3])
		}
		seed = uint64(vals[3])
	}
	if err := CheckCells(vals[0], vals[1]); err != nil {
		return nil, err
	}
	g, err := core.NewGame(vals[0], vals[1], vals[2], r)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name: fmt.Sprintf("random:%d,%d,%d,%d", vals[0], vals[1], vals[2], seed),
		Description: fmt.Sprintf(
			"random start: |N|=%d, |C|=%d, k=%d, seed %d", vals[0], vals[1], vals[2], seed),
		Game:  g,
		Alloc: dynamics.RandomAlloc(g, seed),
	}, nil
}

// generateBistritz builds the bistritz:N,C[,seed] family after Bistritz &
// Leshem's large-scale distributed allocation setting (arXiv:1603.03956):
// N users with a single radio each over C >= N channels, so an
// interference-free allocation — every user alone on its own channel — is
// feasible and is exactly the Nash-equilibrium target the game's dynamics
// should reach. The pinned start is a seeded uniformly random placement,
// collisions included.
func generateBistritz(params string, r ratefn.Func) (*Scenario, error) {
	vals, err := parseInts(params)
	if err != nil {
		return nil, err
	}
	if len(vals) != 2 && len(vals) != 3 {
		return nil, fmt.Errorf("want bistritz:N,C[,seed], got %d parameters", len(vals))
	}
	users, channels := vals[0], vals[1]
	if users < 1 {
		return nil, fmt.Errorf("want >= 1 users, got %d", users)
	}
	if channels < users {
		return nil, fmt.Errorf(
			"interference-free target regime needs C >= N channels, got N=%d C=%d", users, channels)
	}
	seed := uint64(1)
	if len(vals) == 3 {
		if vals[2] < 0 {
			return nil, fmt.Errorf("negative seed %d", vals[2])
		}
		seed = uint64(vals[2])
	}
	if err := CheckCells(users, channels); err != nil {
		return nil, err
	}
	g, err := core.NewGame(users, channels, 1, r)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name: fmt.Sprintf("bistritz:%d,%d,%d", users, channels, seed),
		Description: fmt.Sprintf(
			"Bistritz-Leshem regime: %d single-radio users, %d channels, random start, seed %d",
			users, channels, seed),
		Game:  g,
		Alloc: dynamics.RandomAlloc(g, seed),
	}, nil
}

// generateHetero builds the hetero:C,k1,k2,... family: a game with one
// radio budget per user.
func generateHetero(params string, r ratefn.Func) (*Scenario, error) {
	vals, err := parseInts(params)
	if err != nil {
		return nil, err
	}
	if len(vals) < 2 {
		return nil, fmt.Errorf("want hetero:C,k1,k2,...")
	}
	if err := CheckCells(len(vals)-1, vals[0]); err != nil {
		return nil, err
	}
	g, err := core.NewHeteroGame(vals[0], vals[1:], r)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:        "hetero:" + params,
		Description: fmt.Sprintf("heterogeneous budgets %v over %d channels", vals[1:], vals[0]),
		Game:        g,
	}, nil
}

// generateMesh promotes the examples/mesh workload: multi-radio backhaul
// routers in one collision domain, with the naive static assignment (every
// router on the first k channels) pinned as the instructive start state.
func generateMesh(params string, r ratefn.Func) (*Scenario, error) {
	dims := []int{9, 6, 3}
	if params != "" {
		vals, err := parseInts(params)
		if err != nil {
			return nil, err
		}
		if len(vals) != 3 {
			return nil, fmt.Errorf("want mesh:routers,channels,radios")
		}
		dims = vals
	}
	if err := CheckCells(dims[0], dims[1]); err != nil {
		return nil, err
	}
	g, err := core.NewGame(dims[0], dims[1], dims[2], r)
	if err != nil {
		return nil, err
	}
	naive := g.NewEmptyAlloc()
	for i := 0; i < g.Users(); i++ {
		for c := 0; c < g.Budget(i); c++ {
			if err := naive.Add(i, c, 1); err != nil {
				return nil, err
			}
		}
	}
	name := "mesh"
	if params != "" {
		name = fmt.Sprintf("mesh:%d,%d,%d", dims[0], dims[1], dims[2])
	}
	return &Scenario{
		Name: name,
		Description: fmt.Sprintf(
			"mesh backhaul: %d routers, %d radios each, %d channels; naive static start",
			dims[0], dims[2], dims[1]),
		Game:  g,
		Alloc: naive,
	}, nil
}

// generateCognitive promotes the examples/cognitive workload: the
// fully-populated secondary-user band (allocations are generated, not
// pinned — run Algorithm 1 or dynamics on the game).
func generateCognitive(params string, r ratefn.Func) (*Scenario, error) {
	dims := []int{10, 8, 3}
	if params != "" {
		vals, err := parseInts(params)
		if err != nil {
			return nil, err
		}
		if len(vals) != 3 {
			return nil, fmt.Errorf("want cognitive:users,channels,radios")
		}
		dims = vals
	}
	if err := CheckCells(dims[0], dims[1]); err != nil {
		return nil, err
	}
	g, err := core.NewGame(dims[0], dims[1], dims[2], r)
	if err != nil {
		return nil, err
	}
	name := "cognitive"
	if params != "" {
		name = fmt.Sprintf("cognitive:%d,%d,%d", dims[0], dims[1], dims[2])
	}
	return &Scenario{
		Name: name,
		Description: fmt.Sprintf(
			"cognitive band: %d secondary users, %d radios each, %d channels",
			dims[0], dims[2], dims[1]),
		Game: g,
	}, nil
}
