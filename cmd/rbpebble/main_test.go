package main

import (
	"testing"

	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

func TestParseModel(t *testing.T) {
	for name, want := range map[string]pebble.ModelKind{
		"base": pebble.Base, "oneshot": pebble.Oneshot, "nodel": pebble.NoDel,
	} {
		m, err := parseModel(name, 100)
		if err != nil || m.Kind != want {
			t.Fatalf("parseModel(%q) = %v, %v", name, m, err)
		}
	}
	m, err := parseModel("compcost", 50)
	if err != nil || m.Kind != pebble.CompCost || m.EpsDenom != 50 {
		t.Fatalf("compcost = %v, %v", m, err)
	}
	if _, err := parseModel("frobnicate", 100); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestParseRule(t *testing.T) {
	for _, name := range []string{"most-red-inputs", "fewest-blue-inputs", "red-ratio"} {
		if _, err := parseRule(name); err != nil {
			t.Fatalf("parseRule(%q): %v", name, err)
		}
	}
	if _, err := parseRule("nope"); err == nil {
		t.Fatal("unknown rule accepted")
	}
}

func TestParseHeuristic(t *testing.T) {
	for name, want := range map[string]solve.Heuristic{
		"auto": solve.HeuristicAuto, "off": solve.HeuristicOff,
	} {
		if h, err := parseHeuristic(name); err != nil || h != want {
			t.Fatalf("parseHeuristic(%q) = %v, %v", name, h, err)
		}
	}
	for _, name := range []string{"lower-bound", "s-partition", ""} {
		if _, err := parseHeuristic(name); err == nil {
			t.Fatalf("parseHeuristic(%q) accepted", name)
		}
	}
}
