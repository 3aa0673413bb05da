package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsWhatTheRegisterRouteRejects: a flag set the server's
// register route answers with 400 — a directed grid or stand-in, an empty
// uniform or R-MAT graph — is an error, and nothing is written.
func TestRejectsWhatTheRegisterRouteRejects(t *testing.T) {
	for _, args := range []string{
		"-kind grid -rows 2 -cols 2 -directed",
		"-kind standin -directed",
		"-kind uniform -n 0 -m 0",
		"-kind rmat -scale 0",
	} {
		var stdout bytes.Buffer
		if err := run(strings.Fields(args), &stdout, io.Discard); err == nil {
			t.Errorf("%s: wrote a graph, want an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %d bytes before failing", args, stdout.Len())
		}
	}
}

// TestEdgeListsPinned pins the bytes graphgen writes for valid flag sets
// (the SHA-256 of the edge list, as written before graphgen built through
// graph.GraphSpec.Build), to stdout and through -out alike.
func TestEdgeListsPinned(t *testing.T) {
	for _, tc := range []struct{ args, sha256 string }{
		{"-kind rmat -scale 8 -edgefactor 4 -weights 5 -seed 3", "0c7332aa0f39a37cf682dc126c2992cb5fc4d75651a9151ecd248005d8ee0e66"},
		{"-kind grid -rows 6 -cols 5 -maxw 9 -seed 2", "d6a32d02862d4022353a8e84d0c576db9e4be65bc606db71784bcae754893413"},
		{"-kind standin -seed 1", "df19052d77d3b0018cc2f34a7bc37618d6efb5e7dfd187537e41d12761f98d41"},
	} {
		var stdout bytes.Buffer
		if err := run(strings.Fields(tc.args), &stdout, io.Discard); err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		path := filepath.Join(t.TempDir(), "g.txt")
		if err := run(append(strings.Fields(tc.args), "-out", path), io.Discard, io.Discard); err != nil {
			t.Fatalf("%s -out: %v", tc.args, err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for where, b := range map[string][]byte{"stdout": stdout.Bytes(), "-out": file} {
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Errorf("%s (%s): edge list sha256 %s, want %s", tc.args, where, got, tc.sha256)
			}
		}
	}
}
