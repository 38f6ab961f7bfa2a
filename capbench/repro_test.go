package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func loadReference(t *testing.T) map[string]string {
	t.Helper()
	var ref map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestReferenceCoversEveryExperiment(t *testing.T) {
	ref := loadReference(t)
	exps := experiments()
	if len(ref) != len(exps) {
		t.Fatalf("%d references for %d experiments", len(ref), len(exps))
	}
	for _, x := range exps {
		if _, ok := ref[x.name]; !ok {
			t.Errorf("experiment %s has no reference", x.name)
		}
	}
}

func TestCheckReference(t *testing.T) {
	out := []byte(`[{"Trace":"x","Missed":false}]`)
	ref := map[string]string{"table2": digest(out)}
	if err := checkReference(ref, "table2", out); err != nil {
		t.Errorf("matching output rejected: %v", err)
	}
	changed := []byte(`[{"Trace":"x","Missed":true}]`)
	if err := checkReference(ref, "table2", changed); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("changed output accepted: %v", err)
	}
	if err := checkReference(ref, "fig4", out); err == nil || !strings.Contains(err.Error(), "no reference") {
		t.Errorf("output without a reference accepted: %v", err)
	}
}

// TestCheapExperimentsMatchReference runs the experiments that take
// milliseconds and checks them against the committed reference, the way
// sim_repro checks every call.
func TestCheapExperimentsMatchReference(t *testing.T) {
	ref := loadReference(t)
	cheap := map[string]bool{"table2": true, "fig5": true, "fig3": true}
	for _, x := range experiments() {
		if !cheap[x.name] {
			continue
		}
		v, err := x.run()
		if err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
		out, err := render(v)
		if err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
		if err := checkReference(ref, x.name, out); err != nil {
			t.Error(err)
		}
	}
}
