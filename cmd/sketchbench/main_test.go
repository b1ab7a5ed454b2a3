package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesTables runs one quick experiment with -json and checks the
// report: one record, its verdict, and a table whose rows all have the
// header's width.
func TestRunWritesTables(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "E7", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "E7:") {
		t.Errorf("stdout lacks E7's table:\n%s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		OK          bool `json:"ok"`
		Experiments []struct {
			Name    string     `json:"name"`
			Seconds float64    `json:"seconds"`
			OK      bool       `json:"ok"`
			Title   string     `json:"title"`
			Header  []string   `json:"header"`
			Rows    [][]string `json:"rows"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK || len(rep.Experiments) != 1 {
		t.Fatalf("report ok=%v with %d experiments, want ok with 1:\n%s", rep.OK, len(rep.Experiments), data)
	}
	e := rep.Experiments[0]
	if e.Name != "E7" || !e.OK || e.Seconds <= 0 || !strings.HasPrefix(e.Title, "E7:") {
		t.Errorf("record name=%q ok=%v seconds=%g title=%q", e.Name, e.OK, e.Seconds, e.Title)
	}
	if len(e.Header) == 0 || len(e.Rows) == 0 {
		t.Fatalf("empty table: header %q, %d rows", e.Header, len(e.Rows))
	}
	for i, row := range e.Rows {
		if len(row) != len(e.Header) {
			t.Errorf("row %d has %d cells, header has %d", i, len(row), len(e.Header))
		}
	}
}

// TestRunExitStatus pins exit status 0 for -h and 2 for an unknown
// experiment, scale, flag or argument.
func TestRunExitStatus(t *testing.T) {
	if code := run([]string{"-h"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("run(-h) = %d, want 0", code)
	}
	for _, args := range [][]string{
		{"-exp", "E99"},
		{"-exp", "E1,nope"},
		{"-scale", "huge"},
		{"-querybench"},
		{"extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
