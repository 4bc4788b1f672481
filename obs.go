package chanalloc

import (
	"io"

	"github.com/multiradio/chanalloc/internal/obs"
)

// Observability facade: the process-global metrics registry and trace ring
// every instrumented layer (kernel, dynamics, engine, live service) writes
// into. Metrics are strictly write-only side channels — no library code
// reads them back — so enabling exposition never changes output bytes.
type (
	// ObsSample is one metric's point-in-time value in a snapshot.
	ObsSample = obs.Sample
	// ObsServer is a running metrics endpoint (ServeObs); Close stops it.
	ObsServer = obs.Server
)

// ObsSnapshot returns every registered metric's current value, sorted by
// name — successive snapshots diff line-by-line.
func ObsSnapshot() []ObsSample { return obs.Snapshot() }

// ObsFlat flattens a snapshot to name → value (histograms contribute
// name_count and name_sum).
func ObsFlat(s []ObsSample) map[string]int64 { return obs.Flat(s) }

// ServeObs starts the observability endpoint on addr (":0" picks a free
// port; the chosen address is ObsServer.Addr). Pair with the daemons'
// -metrics flag.
func ServeObs(addr string) (*ObsServer, error) { return obs.ListenAndServe(addr) }

// WriteObsTrace dumps the global trace ring as NDJSON, oldest first.
func WriteObsTrace(w io.Writer) error { return obs.DefaultTrace.WriteNDJSON(w) }
