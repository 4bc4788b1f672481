package chanalloc_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/obs"

	// Registers metrics but is linked only by tests (the chaos harness);
	// every other registering package is already linked by this one.
	_ "github.com/multiradio/chanalloc/internal/faultinject"
)

// metricName is the shape of a registered metric name: lower-case
// snake_case with at least one underscore.
var metricName = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// catalogueNames returns the metric names EXPERIMENTS.md's "Metric
// catalogue" section documents: the first field of each indented listing
// line and every back-quoted name in its prose.
func catalogueNames(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n### Metric catalogue\n")
	if start < 0 {
		t.Fatal(`EXPERIMENTS.md has no "### Metric catalogue" section`)
	}
	section := doc[start+1:]
	if end := strings.Index(section[len("### "):], "\n#"); end >= 0 {
		section = section[:len("### ")+end]
	}
	names := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "    ") {
			if f := strings.Fields(line); len(f) > 0 && metricName.MatchString(f[0]) {
				names[f[0]] = true
			}
			continue
		}
		parts := strings.Split(line, "`")
		for i := 1; i < len(parts); i += 2 {
			if metricName.MatchString(parts[i]) {
				names[parts[i]] = true
			}
		}
	}
	return names
}

// TestMetricCatalogueMatchesRegistry checks EXPERIMENTS.md's metric
// catalogue against the process registry in both directions: every
// registered metric is documented, and every documented name is still
// registered.
func TestMetricCatalogueMatchesRegistry(t *testing.T) {
	documented := catalogueNames(t)
	registered := map[string]bool{}
	for _, s := range obs.Snapshot() {
		registered[s.Name] = true
	}
	var undocumented, stale []string
	for name := range registered {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(stale)
	if len(undocumented) > 0 {
		t.Errorf("registered but missing from the EXPERIMENTS.md metric catalogue: %v", undocumented)
	}
	if len(stale) > 0 {
		t.Errorf("in the EXPERIMENTS.md metric catalogue but not registered: %v", stale)
	}
}
