package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/faultinject"
	"github.com/multiradio/chanalloc/internal/obs"
)

// The chaos conformance suite: the cluster backend under a seeded,
// budget-bounded network adversary (internal/faultinject) must fan in
// byte-identical to the fault-free in-process baseline. Which operations the
// faults land on depends on scheduling, so the assertion is deliberately
// schedule-independent: for ANY in-budget fault placement the results are
// the same bytes — requeues, redials and evictions are wall-clock noise,
// never data.

// chaosConfig is the suite's standard adversary mix: connection drops at
// accept, read/write delays, and occasional severs, all from one seed with a
// shared budget.
func chaosConfig(seed uint64) faultinject.Config {
	return faultinject.Config{
		Seed:       seed,
		DropAccept: 0.25,
		Delay:      0.10,
		MaxDelay:   2 * time.Millisecond,
		Sever:      0.02,
		Budget:     32,
	}
}

// startChaosCluster builds a coordinator whose listener is wrapped by the
// injector (faults bite below TLS when tlsOpts add it) plus `workers`
// redialing in-process workers.
func startChaosCluster(t *testing.T, inj *faultinject.Injector, workers int,
	clusterOpts []RemoteOption, joinOpts []JoinOption) *Cluster {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := tunedCluster(t, inj.Listener(lis), 50*time.Millisecond, 0, append([]RemoteOption{
		WithJoinWait(20 * time.Second),
	}, clusterOpts...)...)
	t.Cleanup(func() { c.Close() })
	runWorkers(t, c.Addr(), workers, joinOpts...)
	return c
}

// TestChaosSeededFaultsByteIdentical runs the suite at every pinned window
// size: lock-step (1), the default-ish (8) and deeper than the batch (32).
func TestChaosSeededFaultsByteIdentical(t *testing.T) {
	const n, root = 40, 17
	params := []byte(`{"mul":31,"label":"chaos"}`)
	want, _, err := NewInProcess().RunTask("conformance/draw", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 8, 32} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			inj := faultinject.New(chaosConfig(uint64(window)*31 + 7))
			c := startChaosCluster(t, inj, 3,
				[]RemoteOption{WithWindow(window)}, nil)
			got, stats, err := c.RunTask("conformance/draw", params, n, Seed(root))
			if err != nil {
				t.Fatal(err)
			}
			for job := range want {
				if !bytes.Equal(want[job], got[job]) {
					t.Fatalf("job %d under faults: %s vs baseline %s", job, got[job], want[job])
				}
			}
			if spent := inj.Spent(); spent > chaosConfig(0).Budget {
				t.Fatalf("injector overspent its budget: %d", spent)
			} else {
				t.Logf("window=%d: %d faults injected, %d requeues", window, spent, stats.Requeues)
			}
		})
	}
}

// TestChaosTLSByteIdentical: the same adversary with TLS layered above the
// injected transport — handshakes retry through drops and severs, and the
// results still match the baseline byte for byte.
func TestChaosTLSByteIdentical(t *testing.T) {
	const n, root = 30, 23
	params := []byte(`{"mul":13,"label":"chaos-tls"}`)
	want, _, err := NewInProcess().RunTask("conformance/draw", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	srvCfg, cliCfg := testTLSPair(t)
	inj := faultinject.New(chaosConfig(99))
	c := startChaosCluster(t, inj, 2,
		[]RemoteOption{WithWindow(8), WithTLS(srvCfg)},
		[]JoinOption{WithJoinTLS(cliCfg)})
	got, _, err := c.RunTask("conformance/draw", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d under TLS faults: %s vs baseline %s", job, got[job], want[job])
		}
	}
}

// TestChaosWorkerKillSchedule: workers killed and restarted on a seeded
// KillSchedule while a batch runs; in-flight jobs requeue to survivors and
// the fan-in is byte-identical.
func TestChaosWorkerKillSchedule(t *testing.T) {
	const n, root = 60, 29
	params := []byte(`{"mul":5,"label":"kill-sched"}`)
	want, _, err := NewInProcess().RunTask("chaos/slow", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	c := tunedCluster(t, nil, 50*time.Millisecond, 0,
		WithJoinWait(20*time.Second),
		WithWindow(4))
	defer c.Close()
	// One stable worker guarantees progress; a second population churns on
	// the kill schedule.
	runWorkers(t, c.Addr(), 1)

	schedule := faultinject.KillSchedule(0xc0ffee, 5, 5*time.Millisecond, 25*time.Millisecond)
	churnQuit := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		var wg sync.WaitGroup
		defer wg.Wait()
		for _, delay := range schedule {
			stopW := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				JoinAndServe(c.Addr(), WithJoinStop(stopW), WithJoinRetryWait(5*time.Millisecond))
			}()
			select {
			case <-time.After(delay):
			case <-churnQuit:
				close(stopW)
				return
			}
			close(stopW) // the kill: conn severed mid-whatever
			faultinject.CountKill()
		}
	}()
	defer func() { close(churnQuit); <-churnDone }()

	before := obs.Snapshot()
	got, stats, err := c.RunTask("chaos/slow", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d under worker churn: %s vs baseline %s", job, got[job], want[job])
		}
	}
	after := obs.Snapshot()
	kills := obsValue(after, "faultinject_kills_total") - obsValue(before, "faultinject_kills_total")
	t.Logf("churn: %d kills recorded, %d requeues, %d workers", kills, stats.Requeues, stats.Workers)
}

// TestChaosKillResumeUnderFaults combines everything: seeded network faults,
// a mid-batch coordinator kill, and a journal resume — the second
// coordinator, also under faults, completes the batch byte-identical.
func TestChaosKillResumeUnderFaults(t *testing.T) {
	const n, root = 40, 31
	params := []byte(`{"mul":19,"label":"chaos-resume"}`)
	want, _, err := NewInProcess().RunTask("chaos/slow", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.journal")

	inj1 := faultinject.New(chaosConfig(41))
	c1 := startChaosCluster(t, inj1, 2,
		[]RemoteOption{WithWindow(4), WithJournal(path)}, nil)
	go func() {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if journalLines(t, path) >= 6 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		c1.Close()
		faultinject.CountKill()
	}()
	if _, _, err := c1.RunTask("chaos/slow", params, n, Seed(root)); err == nil {
		t.Fatal("killed coordinator completed the batch (kill landed too late)")
	}

	inj2 := faultinject.New(chaosConfig(43))
	c2 := startChaosCluster(t, inj2, 2,
		[]RemoteOption{WithWindow(4), WithJournal(path), WithResume(true)}, nil)
	got, stats, err := c2.RunTask("chaos/slow", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed < 1 {
		t.Fatalf("resume recovered nothing (journal had entries)")
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d after chaos kill+resume: %s vs baseline %s", job, got[job], want[job])
		}
	}
	t.Logf("chaos resume: %d resumed, %d+%d faults injected", stats.Resumed, inj1.Spent(), inj2.Spent())
}

// tapConn records every frame the coordinator writes to one worker
// connection. A victim tap severs its connection through a faultinject
// wrapper on the write of job frame severAfter+1, with the previous frames'
// jobs still in flight.
type tapConn struct {
	net.Conn
	faulty     net.Conn // the same transport behind a sever-on-first-use injector
	severAfter int      // 0: never sever

	mu   sync.Mutex
	sent [][]byte
	jobs int
}

func (c *tapConn) Write(b []byte) (int, error) {
	isJob := bytes.HasPrefix(b, []byte(`{"type":"job"`))
	c.mu.Lock()
	sever := isJob && c.severAfter > 0 && c.jobs >= c.severAfter
	c.mu.Unlock()
	if sever {
		return c.faulty.Write(b)
	}
	n, err := c.Conn.Write(b)
	if err == nil {
		c.mu.Lock()
		c.sent = append(c.sent, append([]byte(nil), b...))
		if isJob {
			c.jobs++
		}
		c.mu.Unlock()
	}
	return n, err
}

// jobFrames decodes the job frames the coordinator wrote, in order.
func (c *tapConn) jobFrames(t *testing.T) []wireMsg {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []wireMsg
	for _, b := range c.sent {
		var m wireMsg
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("coordinator wrote an undecodable frame %q: %v", b, err)
		}
		if m.Type == wireJob {
			out = append(out, m)
		}
	}
	return out
}

// tapListener wraps every accepted connection in a tapConn; the first one
// accepted is the victim.
type tapListener struct {
	net.Listener
	inj        *faultinject.Injector
	severAfter int

	mu    sync.Mutex
	conns []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: conn, faulty: l.inj.Conn(conn)}
	l.mu.Lock()
	if len(l.conns) == 0 {
		tc.severAfter = l.severAfter
	}
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

func (l *tapListener) tapped() []*tapConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*tapConn(nil), l.conns...)
}

// TestClusterSeveredWorkerParamsOnFirstFrame pins the v2 params rule under
// a mid-batch sever: the victim's connection dies with jobs in flight, the
// survivor takes the requeued jobs against the params its own first frame
// carried, the victim's redial gets a fresh first frame with params, and
// the batch fans in byte-identical to the in-process pool.
func TestClusterSeveredWorkerParamsOnFirstFrame(t *testing.T) {
	const n, root = 40, 23
	params := []byte(`{"mul":3,"label":"sever"}`)
	want, _, err := NewInProcess().RunTask("chaos/slow", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{Seed: 1, Sever: 1, Budget: 1})
	tap := &tapListener{Listener: lis, inj: inj, severAfter: 3}
	c := tunedCluster(t, tap, 50*time.Millisecond, 0, WithWindow(4), WithJoinWait(20*time.Second))
	t.Cleanup(func() { c.Close() })
	awaitMembers := func(k int) {
		deadline := time.Now().Add(5 * time.Second)
		for c.reg.Len() < k && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if c.reg.Len() < k {
			t.Fatalf("only %d of %d workers joined", c.reg.Len(), k)
		}
	}
	runWorkers(t, c.Addr(), 1) // the victim joins first
	awaitMembers(1)
	runWorkers(t, c.Addr(), 1) // the survivor
	awaitMembers(2)

	got, stats, err := c.RunTask("chaos/slow", params, n, Seed(root))
	if err != nil {
		t.Fatal(err)
	}
	for job := range want {
		if !bytes.Equal(want[job], got[job]) {
			t.Fatalf("job %d after a mid-batch sever: %s vs baseline %s", job, got[job], want[job])
		}
	}
	if inj.Spent() != 1 || stats.Requeues < 1 {
		t.Fatalf("%d faults injected, %d requeues: the victim was not severed mid-batch", inj.Spent(), stats.Requeues)
	}
	conns := tap.tapped()
	if len(conns) < 2 {
		t.Fatalf("%d connections accepted, want the victim and the survivor", len(conns))
	}
	if frames := conns[1].jobFrames(t); len(frames) == 0 {
		t.Fatal("the survivor received no jobs")
	}
	// Every connection that carried jobs — victim, survivor and the
	// victim's redial, if it got work — carries params on exactly its
	// first job frame.
	for i, conn := range conns {
		for k, m := range conn.jobFrames(t) {
			if carries := len(m.Params) > 0; carries != (k == 0) {
				t.Fatalf("connection %d job frame %d (job %d): carries params = %v", i, k, m.Job, carries)
			}
		}
	}
}
