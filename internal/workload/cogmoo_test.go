package workload

import (
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/ratefn"
)

func TestCogMOOScenario(t *testing.T) {
	r := ratefn.NewTDMA(1)
	s, err := ByName("cogmoo:5,4,2", r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "cogmoo:5,4,2" {
		t.Fatalf("name %q, want the canonical cogmoo:5,4,2", s.Name)
	}
	if s.Game == nil || s.Alloc == nil {
		t.Fatal("cogmoo must pin both the game and the start allocation")
	}
	if s.Game.Users() != 5 || s.Game.Channels() != 4 || s.Game.Radios() != 1 {
		t.Fatalf("game is %dx%d with k=%d, want 5 single-radio users over 4 channels",
			s.Game.Users(), s.Game.Channels(), s.Game.Radios())
	}
	// Crowded bands are legal: more users than channels forces sharing.
	if _, err := ByName("cogmoo:6,3,1", r); err != nil {
		t.Fatalf("N > C must be allowed in a cognitive band: %v", err)
	}
	// Default seed is 1, spelled out in the canonical name.
	s3, err := ByName("cogmoo:5,4", r)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Name != "cogmoo:5,4,1" {
		t.Fatalf("default-seed name %q, want cogmoo:5,4,1", s3.Name)
	}
}

func TestCogMOOReproducible(t *testing.T) {
	r := ratefn.NewTDMA(1)
	s1, err := ByName("cogmoo:5,4,2", r)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ByName("cogmoo:5,4,2", r)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Alloc.String() != s2.Alloc.String() {
		t.Fatal("cogmoo start allocation is not reproducible")
	}
}

func TestCogMOOParseErrors(t *testing.T) {
	r := ratefn.NewTDMA(1)
	for _, name := range []string{
		"cogmoo",         // no parameters
		"cogmoo:5",       // missing channels
		"cogmoo:5,4,1,9", // too many parameters
		"cogmoo:x,4",     // malformed integer
		"cogmoo:0,4",     // no users
		"cogmoo:5,0",     // no channels
		"cogmoo:5,4,-2",  // negative seed
	} {
		if _, err := ByName(name, r); err == nil {
			t.Errorf("%s: want a parse error", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %v does not name the scenario", name, err)
		}
	}
}
