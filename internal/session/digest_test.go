// Digest pins: the session's content hashes are stored keys. Segment
// hashes key cached ASTs, dependency hashes stamp every stored summary,
// and canonical context keys name the summaries themselves. A change to
// how any of them is rendered silently turns every stored artifact into
// a miss (or, worse, two renderings into one key), so the bytes each
// digest hashes are pinned for every corpus file by
// testdata/digests.golden. Regenerate it only for an intended format
// change, with:
//
//	go test ./internal/session -run TestSessionDigestsPinned -update

package session

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mtpa/internal/core"
	"mtpa/internal/lexer"
	"mtpa/internal/parser"
)

var update = flag.Bool("update", false, "rewrite golden files")

// corpusFiles lists every corpus program (all three partitions), sorted.
func corpusFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, dir := range []string{"corpus", "corpus_seq", "corpus_unstr"} {
		matches, err := filepath.Glob(filepath.Join("..", "bench", dir, "*.clk"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	return files
}

// listDigest folds a sorted list of rows into one short digest, so the
// golden stays one line per file and kind.
func listDigest(rows []string) string {
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// digestRows renders one corpus file's session digests: its segment
// hashes, its per-procedure dependency hashes, and the canonical context
// keys harvested by one seeded run.
func digestRows(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file, src := filepath.Base(path), string(data)

	segs, ok := parser.SegmentTokens(lexer.New(file, src).All())
	if !ok {
		t.Fatalf("%s: unsplittable token stream", file)
	}
	var segRows []string
	for _, seg := range segs {
		segRows = append(segRows, fmt.Sprintf("%d|%s", seg.Anchor, seg.Hash))
	}

	s := New(core.Options{Mode: core.Multithreaded}, 0)
	st, err := s.StageUpdate(file, src)
	if err != nil {
		t.Fatalf("%s: stage: %v", file, err)
	}
	var depRows []string
	for fn, h := range st.deps {
		depRows = append(depRows, fn+"|"+h)
	}
	sort.Strings(depRows)
	if _, _, err := s.RunStaged(context.Background(), st, nil); err != nil {
		t.Fatalf("%s: run: %v", file, err)
	}
	store := s.store.(*Store)
	var ctxRows []string
	store.mu.Lock()
	for k, e := range store.items {
		if sm, ok := e.val.(*storedSum); ok {
			ctxRows = append(ctxRows, sm.fn+"|"+k[strings.LastIndexByte(k, '|')+1:])
		}
	}
	store.mu.Unlock()
	sort.Strings(ctxRows)

	return []string{
		fmt.Sprintf("%s\tsegs\t%d\t%s", file, len(segRows), listDigest(segRows)),
		fmt.Sprintf("%s\tdeps\t%d\t%s", file, len(depRows), listDigest(depRows)),
		fmt.Sprintf("%s\tctx\t%d\t%s", file, len(ctxRows), listDigest(ctxRows)),
	}
}

// TestSessionDigestsPinned: every segment hash, dependency hash and
// canonical context key of every corpus file is byte-identical to the
// pinned rendering.
func TestSessionDigestsPinned(t *testing.T) {
	var got []string
	for _, path := range corpusFiles(t) {
		got = append(got, digestRows(t, path)...)
	}
	golden := filepath.Join("testdata", "digests.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digest rows, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest drift:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
