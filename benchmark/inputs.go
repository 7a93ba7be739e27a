// Workload inputs. The corpus sources and their golden rows are read from
// the repository; everything a run feeds the program beyond that — pass
// orders, edit scripts, the tenant map and the request schedule — is
// generated from -seed, so one seed always yields byte-identical inputs
// (see inputs.encode and the digest printed by every run).

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// row is a program's golden line (Multithreaded mode): exit-graph edge
// counts, context and round counts, and the flow-insensitive tier-0 size.
type row struct {
	cEdges, eEdges, contexts, rounds, fiEdges, fiIters int
}

// program is one corpus file.
type program struct {
	name   string
	file   string
	src    string
	braces []int // byte offset just past each procedure body's opening brace
	golden row
}

// source renders a version of the program: counts[i] no-op statements
// (" 0;") inserted right after the opening brace of procedure i. The
// insertion stays on the brace's line, so no other token changes line.
func (p *program) source(counts []int) string {
	var b strings.Builder
	last := 0
	for i, off := range p.braces {
		if counts[i] == 0 {
			continue
		}
		b.WriteString(p.src[last:off])
		b.WriteString(strings.Repeat(" 0;", counts[i]))
		last = off
	}
	b.WriteString(p.src[last:])
	return b.String()
}

// The corpus partitions, relative to the repository root.
var (
	paperCorpus = partition{"internal/bench/corpus", "internal/bench/testdata/golden_corpus.tsv"}
	seqCorpus   = partition{"internal/bench/corpus_seq", "internal/bench/testdata/golden_seq.tsv"}
	unstrCorpus = partition{"internal/bench/corpus_unstr", "internal/bench/testdata/golden_unstr.tsv"}
)

type partition struct{ dir, golden string }

// loadPrograms reads the .clk files of the given partitions, in
// partition order and file-name order within each.
func loadPrograms(root string, parts ...partition) ([]*program, error) {
	var out []*program
	for _, part := range parts {
		rows, err := loadGolden(filepath.Join(root, part.golden))
		if err != nil {
			return nil, err
		}
		entries, err := os.ReadDir(filepath.Join(root, part.dir))
		if err != nil {
			return nil, fmt.Errorf("read corpus: %w", err)
		}
		for _, e := range entries {
			name, ok := strings.CutSuffix(e.Name(), ".clk")
			if !ok {
				continue
			}
			data, err := os.ReadFile(filepath.Join(root, part.dir, e.Name()))
			if err != nil {
				return nil, fmt.Errorf("read corpus: %w", err)
			}
			golden, ok := rows[name]
			if !ok {
				return nil, fmt.Errorf("%s: no golden row in %s", name, part.golden)
			}
			p := &program{name: name, file: e.Name(), src: string(data), golden: golden}
			p.braces = procBraces(p.src)
			if len(p.braces) == 0 {
				return nil, fmt.Errorf("%s: no procedure found", name)
			}
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no corpus programs under %s", root)
	}
	return out, nil
}

// loadGolden reads the Multithreaded rows of a golden table. Rows end in
// the six columns cEdges eEdges contexts rounds fiEdges fiIters; the
// partition tables carry an extra fast-path column before them.
func loadGolden(path string) (map[string]row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden rows: %w", err)
	}
	rows := map[string]row{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 8 || strings.HasPrefix(f[0], "#") || f[1] != "Multithreaded" {
			continue
		}
		var n [6]int
		for i, s := range f[len(f)-6:] {
			if n[i], err = strconv.Atoi(s); err != nil {
				return nil, fmt.Errorf("%s: bad golden line %q", path, line)
			}
		}
		rows[f[0]] = row{n[0], n[1], n[2], n[3], n[4], n[5]}
	}
	return rows, nil
}

// procBraces returns the offset just past every procedure body's opening
// brace: a '{' at brace depth 0 whose previous significant character is
// ')'. Comments, string and character literals and preprocessor lines are
// skipped. The scan is deliberately independent of the analyser's lexer,
// so a change to the front end cannot change the generated inputs.
func procBraces(src string) []int {
	var out []int
	depth := 0
	prev := byte(0)
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '/' && strings.HasPrefix(src[i:], "//"), c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		case c == '/' && strings.HasPrefix(src[i:], "/*"):
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return out
			}
			i += end + 3
			continue
		case c == '"' || c == '\'':
			for i++; i < len(src) && src[i] != c; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		case c == '{':
			if depth == 0 && prev == ')' {
				out = append(out, i+1)
			}
			depth++
		case c == '}':
			depth--
		}
		prev = c
	}
	return out
}

// Request kinds of the mtpad workload.
const (
	reqUpdate = iota
	reqPointsTo
	reqRaces
)

var reqKindNames = [...]string{"update", "query", "races"}

// request is one scheduled mtpad call.
type request struct {
	due     time.Duration // offset from the start of the schedule
	tenant  int
	kind    int
	version int // reqUpdate: index into versions of the tenant's program
}

// edit is one edit-stream step: the file and the version it becomes.
type edit struct {
	prog    int
	version int
}

// inputs is everything one run sends to the program, generated from the
// seed. Only the fields of the run's workload are populated.
type inputs struct {
	progs []*program

	passes [][]int // oneshot: program order of each pass

	// versions[p][v] is version v of program p as per-procedure insertion
	// counts; version 0 is the unedited base.
	versions [][][]int
	edits    []edit // edit-stream: whole cycles, cycle 0 the warm-up

	tenants  []int // mtpad: tenant → program
	conns    []int // mtpad: tenant → client connection
	requests []request
}

// Generation parameters. They are part of the workload definitions.
const (
	burstLen      = 10  // edit-stream: edits per burst on one file
	undosPerBurst = 2   // edit-stream: undos among them (20%)
	undoDepth     = 8   // edit-stream: an undo returns to one of the file's latest versions
	maxInsert     = 3   // no-op statements one edit inserts
	mtpadPool     = 64  // mtpad: versions per program that updates choose from
	mtpadRate     = 200 // mtpad: requests per second, open loop
	// mtpad: every mtpadUpdateEvery-th request is an update (10%), so
	// background refinements keep the daemon near a third of its two CPUs
	// busy. At 25%, its reads queued behind refinements for so much of the
	// time that their median sat on the edge between a queued and an
	// unqueued read and jumped from run to run.
	mtpadUpdateEvery = 10
	// mtpad: the schedule's rounds. The first is a warm-up, sent and
	// checked but not measured.
	mtpadSlice = 2 * time.Second
	// The generated streams outlast any run on this kind of machine; a run
	// that exhausts one wraps around.
	opsPerSecondCap   = 4000
	editsPerSecondCap = 1000
)

// mtpadPrograms are the programs of the 8 mtpad tenants, one each: paper
// programs spanning an order of magnitude of analysis cost, ck among them
// for the memcpy seeding gate. The seed decides which tenant holds which
// program and rides which connection; the set stays fixed so that runs on
// different seeds load the daemon alike. No two tenants share a program:
// see README.md, "Known issue".
var mtpadPrograms = []string{"queens", "game", "heat", "magic", "ck", "cilksort", "lu", "barnes"}

// genInputs generates the inputs of one workload run.
func genInputs(workload string, progs []*program, seed int64, window time.Duration) *inputs {
	in := &inputs{progs: progs}
	rng := rand.New(rand.NewSource(seed))
	secs := window.Seconds()
	switch workload {
	case "oneshot-par", "oneshot-seq":
		n := int(secs*opsPerSecondCap)/len(progs) + 1
		for i := 0; i < n; i++ {
			in.passes = append(in.passes, rng.Perm(len(progs)))
		}
	case "edit-stream":
		in.versions = baseVersions(progs)
		cycles := 1 + int(secs*editsPerSecondCap)/(len(progs)*burstLen) + 1
		in.edits = genEdits(rng, progs, in.versions, cycles)
	case "mtpad-mixed":
		in.versions = baseVersions(progs)
		byName := map[string]int{}
		for i, p := range progs {
			byName[p.name] = i
		}
		in.tenants = make([]int, len(mtpadPrograms))
		in.conns = make([]int, len(mtpadPrograms))
		for i, t := range rng.Perm(len(mtpadPrograms)) {
			p := byName[mtpadPrograms[i]]
			in.tenants[t], in.conns[t] = p, t%2
			in.versions[p] = genPool(rng, progs[p], mtpadPool)
		}
		// Every tenth request is an update. Updates visit the tenants in one
		// seeded rotation, so each tenant sends its next version 400 ms after
		// its last. The other requests are queries, four points-to queries to
		// each races query, spread evenly over the tenants in seeded order.
		// The schedule starts with a warm-up slice.
		rotation := rng.Perm(len(in.tenants))
		var queries []request
		n := int((secs + mtpadSlice.Seconds()) * mtpadRate)
		for i := 0; i < n; i++ {
			var r request
			if i%mtpadUpdateEvery == 0 {
				r = request{tenant: rotation[i/mtpadUpdateEvery%len(rotation)], kind: reqUpdate, version: rng.Intn(mtpadPool)}
			} else {
				if len(queries) == 0 {
					queries = queryBlock(rng, len(in.tenants))
				}
				r, queries = queries[0], queries[1:]
			}
			r.due = time.Duration(i) * time.Second / mtpadRate
			in.requests = append(in.requests, r)
		}
	}
	return in
}

// queryBlock returns 40 queries in seeded order: each tenant 5 times, 32
// points-to and 8 races queries.
func queryBlock(rng *rand.Rand, tenants int) []request {
	out := make([]request, 0, 5*tenants)
	for i := 0; i < 5; i++ {
		for _, t := range rng.Perm(tenants) {
			out = append(out, request{tenant: t, kind: reqPointsTo})
		}
	}
	for _, i := range rng.Perm(len(out))[:len(out)/5] {
		out[i].kind = reqRaces
	}
	return out
}

// baseVersions gives every program its unedited version 0.
func baseVersions(progs []*program) [][][]int {
	vs := make([][][]int, len(progs))
	for i, p := range progs {
		vs[i] = [][]int{make([]int, len(p.braces))}
	}
	return vs
}

// genEdits writes the edit-stream script: cycles, each visiting every
// file once, in one seeded order, with a burst of burstLen edits. In every
// burst, undosPerBurst edits at seeded positions after the first return
// to one of the file's undoDepth latest versions other than the current;
// the others insert 1..maxInsert no-op statements into a random procedure
// of the current version. Every cycle holds the same number of edits and
// undos per file whatever the seed, so a cycle is a round of fixed
// composition; and a file's bursts are exactly one cycle apart (see
// storeCapacity).
func genEdits(rng *rand.Rand, progs []*program, versions [][][]int, cycles int) []edit {
	cur := make([]int, len(progs))
	order := rng.Perm(len(progs))
	var out []edit
	for c := 0; c < cycles; c++ {
		for _, f := range order {
			undo := make([]bool, burstLen)
			for _, j := range rng.Perm(burstLen - 1)[:undosPerBurst] {
				undo[j+1] = true
			}
			for j := 0; j < burstLen; j++ {
				vs := versions[f]
				if undo[j] {
					var back []int
					for v := max(0, len(vs)-1-undoDepth); v < len(vs); v++ {
						if v != cur[f] {
							back = append(back, v)
						}
					}
					cur[f] = back[rng.Intn(len(back))]
					out = append(out, edit{prog: f, version: cur[f]})
					continue
				}
				counts := append([]int{}, vs[cur[f]]...)
				counts[rng.Intn(len(counts))] += 1 + rng.Intn(maxInsert)
				versions[f] = append(vs, counts)
				cur[f] = len(vs)
				out = append(out, edit{prog: f, version: cur[f]})
			}
		}
	}
	return out
}

// genPool returns n distinct versions of p: an edit history starting at
// the base, each version one insertion of 1..maxInsert no-op statements
// into a random procedure of the one before.
func genPool(rng *rand.Rand, p *program, n int) [][]int {
	pool := [][]int{make([]int, len(p.braces))}
	for len(pool) < n {
		counts := append([]int{}, pool[len(pool)-1]...)
		counts[rng.Intn(len(counts))] += 1 + rng.Intn(maxInsert)
		pool = append(pool, counts)
	}
	return pool
}

// encode writes a canonical rendering of the inputs; the digest of this
// byte stream identifies them.
func (in *inputs) encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, p := range in.progs {
		sum := sha256.Sum256([]byte(p.src))
		fmt.Fprintf(bw, "prog %s %x\n", p.name, sum[:8])
	}
	for _, pass := range in.passes {
		fmt.Fprintln(bw, "pass", pass)
	}
	for p, vs := range in.versions {
		for v, counts := range vs {
			fmt.Fprintln(bw, "version", p, v, counts)
		}
	}
	for _, e := range in.edits {
		fmt.Fprintln(bw, "edit", e.prog, e.version)
	}
	fmt.Fprintln(bw, "tenants", in.tenants, in.conns)
	for _, r := range in.requests {
		fmt.Fprintln(bw, "req", int64(r.due), r.tenant, r.kind, r.version)
	}
	return bw.Flush()
}

// digest is the hex SHA-256 of encode's output.
func (in *inputs) digest() string {
	h := sha256.New()
	_ = in.encode(h) // writes to a hash cannot fail
	return hex.EncodeToString(h.Sum(nil))
}
