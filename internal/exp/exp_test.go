package exp

import (
	"testing"

	"distreach/internal/cluster"
)

// fastCfg shrinks every experiment to smoke-test size: the suite must run
// end to end in seconds while still exercising every code path.
var fastCfg = Config{Queries: 2, Scale: 0.02, Net: &cluster.NetModel{}}

func TestEveryExperimentRuns(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, fastCfg)
			if err != nil {
				t.Fatalf("experiment %s: %v", id, err)
			}
			if tab.ID != id {
				t.Errorf("table ID %q, want %q", tab.ID, id)
			}
			if len(tab.Rows) == 0 {
				t.Errorf("experiment %s produced no rows", id)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("experiment %s: row width %d, header width %d", id, len(row), len(tab.Header))
				}
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("NOPE", fastCfg); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	want := map[string]bool{
		"T2": true, "F11a": true, "F11b": true, "F11c": true, "F11d": true,
		"F11e": true, "F11f": true, "F11g": true, "F11h": true, "F11i": true,
		"F11j": true, "F11k": true, "F11l": true, "X1": true, "X2": true,
		"A1": true, "A2": true, "CHK": true, "E2": true, "N6": true,
		"N7": true, "N10": true,
	}
	if len(ids) != len(want) {
		t.Fatalf("have %d experiments (%v), want %d", len(ids), ids, len(want))
	}
	for _, id := range ids {
		if !want[id] {
			t.Errorf("unexpected experiment %s", id)
		}
	}
}
