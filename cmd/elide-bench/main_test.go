package main

import "testing"

// TestUnknownScenarioExits2: an unknown -scenario is a usage error,
// reported before any benchmark work starts.
func TestUnknownScenarioExits2(t *testing.T) {
	if code := run([]string{"-scenario", "nosuch"}); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
}
