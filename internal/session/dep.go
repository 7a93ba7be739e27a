// Per-procedure dependency hashing: the invalidation edge of the summary
// cache. A retained ⟨C,I⟩→⟨C,E⟩ summary of procedure P is valid exactly
// while depHash(P) is unchanged, where depHash(P) covers everything P's
// fixed-point result (and its measurements, warnings and positions) can
// observe:
//
//   - P's own definition: segment content hash plus its anchor line
//     (analysis artifacts carry absolute source positions);
//   - the shared naming environment: struct definitions, prototypes and
//     forward declarations (coarse — any such edit flushes everything);
//   - the blocks P's lowered body references from outside itself: its
//     canonical block footprint (covering kind, type and string-literal
//     occurrence identity) plus, per referenced global, the declaring
//     segment's content hash;
//   - for main only, every global declaration segment: global
//     initialisers are lowered at main's entry;
//   - every procedure transitively callable from P, by the same base
//     hash — an indirect call (through a function pointer) conservatively
//     depends on every procedure body in the program.
//
// The hashes are recomputed from scratch on every update (they are cheap
// relative to analysis) and compared against the hashes stored alongside
// each summary; a mismatch is a cache miss, never an error.

package session

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"

	"mtpa/internal/core"
	"mtpa/internal/ir"
	"mtpa/internal/sem"
)

// depInput is everything dep hashing needs from the compile stage.
type depInput struct {
	irProg *ir.Program
	// procSegs maps a procedure name to its segment hash and anchor line.
	procSegs map[string]segKey
	// globalSegs maps a global variable name to its declaring segment's
	// content hash (anchor excluded: a global whose declaration merely
	// moved is still byte-identical to its referents).
	globalSegs map[string]string
	// envHash covers struct definitions, prototypes and forward
	// declarations (hash and anchor of every such segment).
	envHash string
	// allGlobalsHash covers every global declaration segment with its
	// anchor (initialisers are position-bearing and lowered at main).
	allGlobalsHash string
}

type segKey struct {
	hash   string
	anchor int
}

// computeDeps returns the per-procedure dependency hashes. The hashes
// stamp stored summaries, so the bytes they cover must stay
// byte-identical (TestSessionDigestsPinned pins them).
func computeDeps(in *depInput) map[string]string {
	footprints := core.BlockFootprints(in.irProg)
	bases := map[string]string{}
	for _, fn := range in.irProg.Funcs {
		bases[fn.Name] = baseHash(in, fn, footprints[fn])
	}

	callees := callGraph(in.irProg)
	deps := make(map[string]string, len(bases))
	for _, fn := range in.irProg.Funcs {
		closure := reachable(fn.Name, callees)
		names := make([]string, 0, len(closure))
		for q := range closure {
			names = append(names, q)
		}
		sort.Strings(names)
		b := appendFields(nil, "self", bases[fn.Name])
		for _, q := range names {
			b = appendFields(b, "callee", q, bases[q])
		}
		deps[fn.Name] = digest(b)
	}
	return deps
}

// baseHash folds one procedure's own dependencies (everything except its
// callees); footprint is its core.BlockFootprints entry.
func baseHash(in *depInput, fn *ir.Func, footprint []string) string {
	seg := in.procSegs[fn.Name]
	b := appendFields(nil, "proc", seg.hash, strconv.Itoa(seg.anchor))
	b = appendFields(b, "env", in.envHash)
	for _, key := range footprint {
		b = appendFields(b, "ref", key)
		if name, ok := globalKeyName(key); ok {
			b = appendFields(b, "refseg", name, in.globalSegs[name])
		}
	}
	if fn == in.irProg.Main {
		b = appendFields(b, "inits", in.allGlobalsHash)
	}
	return digest(b)
}

// appendFields appends one hashed record: the fields joined by NUL and
// terminated by a newline.
func appendFields(b []byte, fields ...string) []byte {
	for i, f := range fields {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, f...)
	}
	return append(b, '\n')
}

// digest is the session's short content hash: the first 16 bytes of the
// SHA-256 of b, hex-encoded.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// globalKeyName extracts the variable name from a canonical global or
// private-global block key ("g:name:type" / "p:name:type").
func globalKeyName(key string) (string, bool) {
	if !strings.HasPrefix(key, "g:") && !strings.HasPrefix(key, "p:") {
		return "", false
	}
	rest := key[2:]
	i := strings.IndexByte(rest, ':')
	if i < 0 {
		return rest, true
	}
	return rest[:i], true
}

// callGraph returns, per procedure, the names of the procedures its body
// may invoke. A call through a function pointer contributes every
// procedure body in the program — the pointed-to set is an analysis
// result, and the dependency edge must over-approximate it.
func callGraph(irProg *ir.Program) map[string][]string {
	var allNames []string
	for _, fn := range irProg.Funcs {
		allNames = append(allNames, fn.Name)
	}
	out := map[string][]string{}
	for _, fn := range irProg.Funcs {
		seen := map[string]bool{}
		var targets []string
		add := func(name string) {
			if !seen[name] {
				seen[name] = true
				targets = append(targets, name)
			}
		}
		for _, n := range fn.AllNodes {
			for _, instr := range n.Instrs {
				call := instr.Call
				if call == nil || call.Builtin != sem.BuiltinNone {
					continue
				}
				switch {
				case call.Callee != nil:
					if callee := irProg.FuncOf(call.Callee); callee != nil {
						add(callee.Name)
					}
				case call.FnLoc != ir.NoLoc:
					for _, name := range allNames {
						add(name)
					}
				}
			}
		}
		out[fn.Name] = targets
	}
	return out
}

// reachable returns the transitive callee closure of a procedure,
// excluding the procedure itself unless it is reachable from its own
// body.
func reachable(name string, callees map[string][]string) map[string]bool {
	seen := map[string]bool{}
	work := append([]string(nil), callees[name]...)
	for len(work) > 0 {
		q := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[q] {
			continue
		}
		seen[q] = true
		work = append(work, callees[q]...)
	}
	return seen
}
