package templar_test

import (
	"os"
	"strings"
	"testing"
)

// TestReadmeQuickstartIsExampleExcerpt keeps the README's library
// quickstart compiling: every line of its Go block must appear in
// ExampleNewLive, which go test builds and runs.
func TestReadmeQuickstartIsExampleExcerpt(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	example, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "## Quickstart (library)\n\n```go\n")
	if !ok {
		t.Fatal("README has no library quickstart Go block")
	}
	block, _, _ = strings.Cut(block, "```")
	have := map[string]bool{}
	for _, l := range strings.Split(string(example), "\n") {
		have[strings.TrimSpace(l)] = true
	}
	for _, l := range strings.Split(block, "\n") {
		if l = strings.TrimSpace(l); l != "" && !have[l] {
			t.Errorf("README quickstart line is not in ExampleNewLive: %s", l)
		}
	}
}
