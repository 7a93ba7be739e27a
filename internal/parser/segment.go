// Per-declaration compilation support for the incremental session
// (internal/session): the token stream of a translation unit is split
// into top-level declaration segments — procedure definitions versus
// everything else (struct definitions, prototypes, globals) — and each
// segment gets a content hash. The session diffs segment hashes between
// updates, reuses cached declaration ASTs for unchanged segments, and
// parses only the changed ones via ParseDecl. Segmentation is purely
// token-syntactic (brace depth and top-level terminators); any input it
// cannot confidently split makes the session fall back to a cold
// whole-file parse, so the segmentation never has to be complete — only
// honest about when it applies.

package parser

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"mtpa/internal/ast"
	"mtpa/internal/token"
	"mtpa/internal/types"
)

// SegmentKind classifies a top-level declaration segment.
type SegmentKind int

const (
	// SegOther is a non-procedure segment: a struct definition, a
	// prototype, a forward declaration or a global variable declaration.
	// These collectively form the naming environment procedures compile
	// against.
	SegOther SegmentKind = iota
	// SegProc is a procedure definition (a declarator followed by a brace
	// body).
	SegProc
)

// Segment is one top-level declaration segment of a token stream.
type Segment struct {
	Kind SegmentKind
	Toks []token.Token // the segment's tokens, terminator included

	// Anchor is the source line of the segment's first token. The content
	// hash uses anchor-relative lines, but cached declaration ASTs carry
	// absolute positions, so the session keys artifacts on ⟨hash, anchor⟩:
	// a segment that merely moved re-parses (keeping every reported
	// position exact) while its analysis-relevant content hash — and with
	// it the summary dependency hashes of unshifted procedures — is
	// line-shift invariant.
	Anchor int

	// Hash is the content hash over the segment's token kinds, literal
	// texts, anchor-relative lines and columns.
	Hash string
}

// SegmentTokens splits a token stream (as produced by lexer.All, EOF
// terminated) into top-level declaration segments. It reports ok=false —
// and the session must fall back to a cold compile — when the stream
// contains an ILLEGAL token, ends inside a segment, or closes a brace it
// never opened; those are exactly the inputs where declaration
// boundaries cannot be trusted.
func SegmentTokens(toks []token.Token) (segs []Segment, ok bool) {
	i := 0
	for i < len(toks) && toks[i].Kind != token.EOF {
		start := i
		depth := 0
		end := -1 // index one past the segment's terminator
		kind := SegOther
	scan:
		for j := i; j < len(toks); j++ {
			switch toks[j].Kind {
			case token.ILLEGAL:
				return nil, false
			case token.EOF:
				return nil, false // stream ended mid-segment
			case token.LBRACE:
				depth++
			case token.RBRACE:
				depth--
				if depth < 0 {
					return nil, false
				}
				if depth == 0 && (j+1 >= len(toks) || toks[j+1].Kind != token.SEMI) {
					// A brace body not followed by ';' terminates a
					// procedure definition (a struct definition's closing
					// brace is followed by ';' and ends at that SEMI below).
					end = j + 1
					kind = SegProc
					break scan
				}
			case token.SEMI:
				if depth == 0 {
					end = j + 1
					break scan
				}
			}
		}
		if end < 0 {
			return nil, false
		}
		seg := Segment{Kind: kind, Toks: toks[start:end], Anchor: toks[start].Pos.Line}
		seg.Hash = hashSegment(seg.Toks, seg.Anchor)
		segs = append(segs, seg)
		i = end
	}
	return segs, true
}

// hashSegment hashes a segment's tokens: kinds, literals and
// anchor-relative positions, so the hash is invariant under whole-segment
// line shifts but sensitive to any token or intra-segment layout change
// (positions appear in diagnostics and analysis output). Each token
// hashes as "kind\x00lit\x00line:col\n"; the hash keys cached ASTs and
// feeds every dependency hash, so those bytes must stay byte-identical.
func hashSegment(toks []token.Token, anchor int) string {
	h := sha256.New()
	var b []byte
	for _, t := range toks {
		b = strconv.AppendInt(b[:0], int64(t.Kind), 10)
		b = append(b, 0)
		b = append(b, t.Lit...)
		b = append(b, 0)
		b = strconv.AppendInt(b, int64(t.Pos.Line-anchor), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(t.Pos.Col), 10)
		b = append(b, '\n')
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ParseDecl parses one segment's tokens as top-level declarations into
// prog, resolving struct tags through the shared structs table (the
// session keeps one table per naming environment, so segments parsed at
// different times agree on struct type identity). Unlike Parse it fails
// loudly — any syntax error is returned and the session falls back to a
// cold whole-file parse for exact diagnostic parity.
func ParseDecl(file string, toks []token.Token, structs map[string]*types.Type, prog *ast.Program) (err error) {
	if structs == nil {
		structs = map[string]*types.Type{}
	}
	eofPos := token.Pos{File: file, Line: 1, Col: 1}
	if n := len(toks); n > 0 {
		last := toks[n-1]
		eofPos = token.Pos{File: file, Line: last.Pos.Line, Col: last.Pos.Col + 1}
	}
	all := make([]token.Token, 0, len(toks)+1)
	all = append(all, toks...)
	all = append(all, token.Token{Kind: token.EOF, Pos: eofPos})
	p := &Parser{toks: all, structs: structs, file: file}
	defer func() {
		if r := recover(); r != nil {
			if _, isBailout := r.(bailout); !isBailout {
				panic(r)
			}
			p.errors = append(p.errors, &Error{Pos: p.tok().Pos, Msg: "parser bailed out"})
			err = p.errors
		}
	}()
	for !p.at(token.EOF) {
		p.parseTopDecl(prog)
	}
	if len(p.errors) > 0 {
		return p.errors
	}
	return nil
}
