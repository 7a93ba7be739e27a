// Canonical, table-independent encodings of analysis state, used by the
// incremental session layer (internal/session) to carry per-context
// summaries across analysis runs. Every run builds a fresh location-set
// table, so block pointers and location-set IDs never survive an update;
// summaries therefore name everything structurally — blocks by canonical
// string keys derived from source-level identity, contexts by a hash of
// their canonically rendered ⟨C_p, I_p, ghost⟩ inputs — and are resolved
// back into the current table on demand. Resolution is all-or-nothing: a
// key that no longer names exactly one block in the current program makes
// the whole summary miss, never mis-resolve.

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mtpa/internal/ir"
	"mtpa/internal/locset"
	"mtpa/internal/ptgraph"
)

// CanonLoc is a location set named canonically: the block key plus the
// ⟨offset, stride⟩ pair and the pointer flag.
type CanonLoc struct {
	Block   string
	Offset  int64
	Stride  int64
	Pointer bool
}

// String renders the location set as "block|offset|stride|pointer".
// The rendering is hashed into context keys, which are stored keys of
// the session's summary cache: it must stay byte-identical.
func (l CanonLoc) String() string { return string(l.appendTo(nil)) }

func (l CanonLoc) appendTo(b []byte) []byte {
	b = append(b, l.Block...)
	b = append(b, '|')
	b = strconv.AppendInt(b, l.Offset, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, l.Stride, 10)
	b = append(b, '|')
	return strconv.AppendBool(b, l.Pointer)
}

// CanonEdge is one points-to edge between canonically named location sets.
type CanonEdge struct {
	Src, Dst CanonLoc
}

// CanonGhost records the actual source blocks one ghost block stands for
// in a context, all canonically named. The ghost is named by its global
// pool name ("ghost#k" / "sghost#k"): contexts number their ghosts
// canonically, so an unchanged calling chain reproduces the same indices,
// and a changed one changes the context key — a safe miss, never a wrong
// hit.
type CanonGhost struct {
	Ghost string
	Srcs  []string // sorted canonical block keys
}

// InstrRef names one IR instruction structurally: function name, node
// index within the function, instruction index within the node.
type InstrRef struct {
	Fn   string
	Node int
	Idx  int
}

// canonizer maintains the block-key bijection for one analysis run. Keys
// are assigned lazily by scanning the table's block list (blocks created
// after the last scan are picked up by the next extend call).
type canonizer struct {
	prog *ir.Program
	tab  *locset.Table

	keys    map[*locset.Block]string
	resolve map[string]*locset.Block
	ambig   map[string]bool
	occ     map[occKey]int
	scanned int

	sitesByPos map[string]int // "line:col" → allocation site index
	strIndex   map[string]int // canonical string key → StringLits index

	fnByName map[string]*ir.Func
	instrRef map[*ir.Instr]InstrRef

	// accOrd maps a global access ID to its per-function ordinal, and
	// accID maps back from (function, ordinal); ordinals are stable across
	// edits to other procedures while global access IDs are not.
	accOrd map[int]int
	accID  map[accOrdKey]int
}

type occKey struct {
	kind locset.BlockKind
	name string
}

type accOrdKey struct {
	fn  string
	ord int
}

func newCanonizer(prog *ir.Program) *canonizer {
	c := &canonizer{
		prog:       prog,
		tab:        prog.Table,
		keys:       map[*locset.Block]string{},
		resolve:    map[string]*locset.Block{},
		ambig:      map[string]bool{},
		occ:        map[occKey]int{},
		sitesByPos: map[string]int{},
		strIndex:   map[string]int{},
		fnByName:   map[string]*ir.Func{},
		accOrd:     map[int]int{},
		accID:      map[accOrdKey]int{},
	}
	for i, site := range prog.Info.AllocSites {
		pos := fmt.Sprintf("%d:%d", site.AllocPos.Line, site.AllocPos.Col)
		if _, dup := c.sitesByPos[pos]; dup {
			c.sitesByPos[pos] = -1 // ambiguous position: resolution misses
		} else {
			c.sitesByPos[pos] = i
		}
	}
	strOcc := map[string]int{}
	for i, lit := range prog.Info.StringLits {
		n := strOcc[lit.Value]
		strOcc[lit.Value] = n + 1
		c.strIndex[stringKey(lit.Value, n)] = i
	}
	for _, fn := range prog.Funcs {
		c.fnByName[fn.Name] = fn
	}
	perFn := map[string]int{}
	for id, acc := range prog.Accesses {
		ord := perFn[acc.Fn.Name]
		perFn[acc.Fn.Name] = ord + 1
		c.accOrd[id] = ord
		c.accID[accOrdKey{fn: acc.Fn.Name, ord: ord}] = id
	}
	return c
}

func stringKey(value string, occ int) string {
	return "s:" + strconv.Quote(value) + "#" + strconv.Itoa(occ)
}

// extend assigns keys to blocks created since the last scan.
func (c *canonizer) extend() {
	blocks := c.tab.Blocks()
	for ; c.scanned < len(blocks); c.scanned++ {
		b := blocks[c.scanned]
		key, ok := c.blockKey(b)
		if !ok {
			continue
		}
		c.keys[b] = key
		if _, dup := c.resolve[key]; dup {
			c.ambig[key] = true
			delete(c.resolve, key)
		} else if !c.ambig[key] {
			c.resolve[key] = b
		}
	}
}

// blockKey derives the canonical key of a block from source-level
// identity. The kind tag is part of the key, so e.g. flipping a global's
// `private` annotation renames every location set of that block and with
// it every context key it appears in — exactly the summaries that could
// observe the change miss.
func (c *canonizer) blockKey(b *locset.Block) (string, bool) {
	typ := ""
	if b.Type != nil {
		typ = b.Type.String()
	}
	switch b.Kind {
	case locset.KindUnk:
		return "unk", true
	case locset.KindGlobal:
		return "g:" + b.Name + ":" + typ, true
	case locset.KindPrivateGlobal:
		return "p:" + b.Name + ":" + typ, true
	case locset.KindLocal:
		return c.occKey("l:", b, typ), true
	case locset.KindParam:
		return c.occKey("a:", b, typ), true
	case locset.KindTemp:
		return "t:" + b.Name, true // temp names are unique per function
	case locset.KindRet:
		return "r:" + b.Name, true
	case locset.KindFunc:
		return "f:" + b.Name, true
	case locset.KindHeap:
		if b.Site < 0 || b.Site >= len(c.prog.Info.AllocSites) {
			return "", false
		}
		pos := c.prog.Info.AllocSites[b.Site].AllocPos
		return fmt.Sprintf("h:%d:%d:%s", pos.Line, pos.Col, typ), true
	case locset.KindString:
		if b.Site < 0 || b.Site >= len(c.prog.Info.StringLits) {
			return "", false
		}
		value := c.prog.Info.StringLits[b.Site].Value
		occ := 0
		for _, lit := range c.prog.Info.StringLits[:b.Site] {
			if lit.Value == value {
				occ++
			}
		}
		return stringKey(value, occ), true
	case locset.KindGhost:
		return "gh:" + b.Name, true // global pool name, "ghost#k"/"sghost#k"
	}
	return "", false
}

// occKey disambiguates same-named blocks (shadowed locals) by their
// occurrence index among blocks of the same kind and name, in table
// creation order — which lowering reproduces deterministically.
func (c *canonizer) occKey(tag string, b *locset.Block, typ string) string {
	k := occKey{kind: b.Kind, name: b.Name}
	n := c.occ[k]
	c.occ[k] = n + 1
	return tag + b.Name + ":" + typ + "#" + strconv.Itoa(n)
}

// encodeBlock returns the canonical key of a block.
func (c *canonizer) encodeBlock(b *locset.Block) (string, bool) {
	c.extend()
	key, ok := c.keys[b]
	if !ok || c.ambig[key] {
		return "", false
	}
	return key, true
}

// resolveBlock maps a canonical key back to a block of the current table,
// creating pooled ghost, heap and string blocks on demand (those are the
// only kinds the analysis itself materialises lazily; everything else
// must already exist or the key misses).
func (c *canonizer) resolveBlock(key string) (*locset.Block, bool) {
	c.extend()
	if b, ok := c.resolve[key]; ok {
		return b, true
	}
	if c.ambig[key] {
		return nil, false
	}
	switch {
	case strings.HasPrefix(key, "gh:ghost#"):
		if idx, err := strconv.Atoi(key[len("gh:ghost#"):]); err == nil {
			c.tab.Ghost(idx, false)
		}
	case strings.HasPrefix(key, "gh:sghost#"):
		if idx, err := strconv.Atoi(key[len("gh:sghost#"):]); err == nil {
			c.tab.Ghost(idx, true)
		}
	case strings.HasPrefix(key, "h:"):
		parts := strings.SplitN(key, ":", 4)
		if len(parts) == 4 {
			site, ok := c.sitesByPos[parts[1]+":"+parts[2]]
			if ok && site >= 0 {
				s := c.prog.Info.AllocSites[site]
				c.tab.HeapBlock(site, s.SiteType, fmt.Sprintf("%d:%d", s.AllocPos.Line, s.AllocPos.Col))
			}
		}
	case strings.HasPrefix(key, "s:"):
		if i, ok := c.strIndex[key]; ok {
			c.tab.StringBlock(i)
		}
	default:
		return nil, false
	}
	c.extend()
	b, ok := c.resolve[key]
	return b, ok
}

func (c *canonizer) encodeLoc(id locset.ID) (CanonLoc, bool) {
	ls := c.tab.Get(id)
	key, ok := c.encodeBlock(ls.Block)
	if !ok {
		return CanonLoc{}, false
	}
	return CanonLoc{Block: key, Offset: ls.Offset, Stride: ls.Stride, Pointer: ls.Pointer}, true
}

func (c *canonizer) resolveLoc(l CanonLoc) (locset.ID, bool) {
	b, ok := c.resolveBlock(l.Block)
	if !ok {
		return 0, false
	}
	return c.tab.Intern(b, l.Offset, l.Stride, l.Pointer), true
}

// encodeGraph renders a points-to graph as its canonically sorted edge
// list.
func (c *canonizer) encodeGraph(g *ptgraph.Graph) ([]CanonEdge, bool) {
	var edges []CanonEdge
	ok := true
	g.ForEachOrdered(func(src locset.ID, dsts ptgraph.Set) {
		cs, sok := c.encodeLoc(src)
		if !sok {
			ok = false
			return
		}
		for _, d := range dsts.IDs() {
			cd, dok := c.encodeLoc(d)
			if !dok {
				ok = false
				return
			}
			edges = append(edges, CanonEdge{Src: cs, Dst: cd})
		}
	})
	if !ok {
		return nil, false
	}
	sortEdges(edges)
	return edges, true
}

// sortEdges orders edges by their rendered source, then destination.
// Each location is rendered once per sort, not once per comparison.
func sortEdges(edges []CanonEdge) {
	type keyed struct {
		src, dst string
		e        CanonEdge
	}
	ks := make([]keyed, len(edges))
	for i, e := range edges {
		ks[i] = keyed{src: e.Src.String(), dst: e.Dst.String(), e: e}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := strings.Compare(a.src, b.src); c != 0 {
			return c
		}
		return strings.Compare(a.dst, b.dst)
	})
	for i := range ks {
		edges[i] = ks[i].e
	}
}

// resolveGraph rebuilds a graph from canonical edges in their sorted
// order, so any location sets interned along the way get deterministic
// IDs.
func (c *canonizer) resolveGraph(edges []CanonEdge) (*ptgraph.Graph, bool) {
	var b ptgraph.GraphBuilder
	for _, e := range edges {
		src, sok := c.resolveLoc(e.Src)
		dst, dok := c.resolveLoc(e.Dst)
		if !sok || !dok {
			return nil, false
		}
		b.Add(src, dst)
	}
	return b.Build(), true
}

// encodeGhosts renders a ghost-source map canonically, sorted by ghost
// pool name.
func (c *canonizer) encodeGhosts(ghostSrc map[*locset.Block][]*locset.Block) ([]CanonGhost, bool) {
	if len(ghostSrc) == 0 {
		return nil, true
	}
	out := make([]CanonGhost, 0, len(ghostSrc))
	for g, srcs := range ghostSrc {
		gk, ok := c.encodeBlock(g)
		if !ok {
			return nil, false
		}
		entry := CanonGhost{Ghost: gk}
		for _, s := range srcs {
			sk, ok := c.encodeBlock(s)
			if !ok {
				return nil, false
			}
			entry.Srcs = append(entry.Srcs, sk)
		}
		sort.Strings(entry.Srcs)
		out = append(out, entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ghost < out[j].Ghost })
	return out, true
}

func (c *canonizer) resolveGhosts(entries []CanonGhost) (map[*locset.Block][]*locset.Block, bool) {
	if len(entries) == 0 {
		return nil, true
	}
	out := make(map[*locset.Block][]*locset.Block, len(entries))
	for _, e := range entries {
		g, ok := c.resolveBlock(e.Ghost)
		if !ok || g.Kind != locset.KindGhost {
			return nil, false
		}
		srcs := make([]*locset.Block, 0, len(e.Srcs))
		for _, sk := range e.Srcs {
			s, ok := c.resolveBlock(sk)
			if !ok {
				return nil, false
			}
			srcs = append(srcs, s)
		}
		out[g] = srcs
	}
	return out, true
}

// ctxKey hashes a context's canonically rendered inputs into its
// table-independent identity.
func (c *canonizer) ctxKey(fn *ir.Func, Cp, Ip *ptgraph.Graph, ghostSrc map[*locset.Block][]*locset.Block) (string, bool) {
	cp, ok := c.encodeGraph(Cp)
	if !ok {
		return "", false
	}
	ip, ok := c.encodeGraph(Ip)
	if !ok {
		return "", false
	}
	ghosts, ok := c.encodeGhosts(ghostSrc)
	if !ok {
		return "", false
	}
	b := append([]byte("fn\x00"), fn.Name...)
	b = append(b, "\x00C"...)
	b = appendEdges(b, cp)
	b = append(b, "\x00I"...)
	b = appendEdges(b, ip)
	b = append(b, "\x00G"...)
	for _, g := range ghosts {
		b = append(b, 0)
		b = append(b, g.Ghost...)
		b = append(b, '=')
		for i, s := range g.Srcs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, s...)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), true
}

// appendEdges renders edges as "\x00src>dst" each, for ctxKey.
func appendEdges(b []byte, edges []CanonEdge) []byte {
	for _, e := range edges {
		b = append(b, 0)
		b = e.Src.appendTo(b)
		b = append(b, '>')
		b = e.Dst.appendTo(b)
	}
	return b
}

// encodeInstr names an instruction structurally; the ref map is built on
// first use.
func (c *canonizer) encodeInstr(in *ir.Instr) (InstrRef, bool) {
	if c.instrRef == nil {
		c.instrRef = map[*ir.Instr]InstrRef{}
		for _, fn := range c.prog.Funcs {
			for ni, n := range fn.AllNodes {
				for ii, instr := range n.Instrs {
					c.instrRef[instr] = InstrRef{Fn: fn.Name, Node: ni, Idx: ii}
				}
			}
		}
	}
	ref, ok := c.instrRef[in]
	return ref, ok
}

func (c *canonizer) resolveInstr(ref InstrRef) (*ir.Instr, bool) {
	fn, ok := c.fnByName[ref.Fn]
	if !ok || ref.Node < 0 || ref.Node >= len(fn.AllNodes) {
		return nil, false
	}
	n := fn.AllNodes[ref.Node]
	if ref.Idx < 0 || ref.Idx >= len(n.Instrs) {
		return nil, false
	}
	return n.Instrs[ref.Idx], true
}

func (c *canonizer) resolveNode(fnName string, nodeID int) (*ir.Node, bool) {
	fn, ok := c.fnByName[fnName]
	if !ok || nodeID < 0 || nodeID >= len(fn.AllNodes) {
		return nil, false
	}
	return fn.AllNodes[nodeID], true
}

// BlockFootprints returns, per function of prog, the sorted canonical
// keys of the global, private-global and string-literal blocks
// referenced by its IR operands. The session folds this footprint into a
// procedure's dependency hash: it pins down which extern-owned blocks the
// procedure's lowered form names (and with which kind, type and literal
// occurrence), so an edit that re-identifies any of them — a type
// change, a `private` flip, a same-content literal shifting its
// occurrence index — changes the hash and invalidates exactly the
// procedures that can observe it. One canonizer serves every function.
func BlockFootprints(prog *ir.Program) map[*ir.Func][]string {
	c := newCanonizer(prog)
	out := make(map[*ir.Func][]string, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		out[fn] = c.footprint(fn)
	}
	return out
}

func (c *canonizer) footprint(fn *ir.Func) []string {
	prog := c.prog
	seen := map[string]bool{}
	addID := func(id locset.ID) {
		if id == ir.NoLoc || id == locset.UnkID {
			return
		}
		b := prog.Table.Get(id).Block
		switch b.Kind {
		case locset.KindGlobal, locset.KindPrivateGlobal, locset.KindString:
			if key, ok := c.encodeBlock(b); ok {
				seen[key] = true
			} else {
				seen["?ambiguous"] = true
			}
		}
	}
	for _, n := range fn.AllNodes {
		for _, in := range n.Instrs {
			addID(in.Dst)
			addID(in.Src)
			if in.Call != nil {
				addID(in.Call.FnLoc)
				addID(in.Call.Ret)
				for _, a := range in.Call.Args {
					addID(a)
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
