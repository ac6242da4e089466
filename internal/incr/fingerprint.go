// Package incr implements the incremental analysis engine: function-level
// memoization over a dependency DAG. Each function of a translation unit is
// fingerprinted from its canonical post-preprocess rendering (whitespace- and
// comment-insensitive) plus the line positions of its nodes (extracted path
// records and warnings carry absolute line numbers, so a layout-shifting edit
// must conservatively invalidate). A function's transitive fingerprint folds
// in the local fingerprints of every function it can reach through calls, so
// editing a callee invalidates all of its transitive callers. Memoized path
// records and whole-unit verdicts live in the process's one result cache
// (internal/rcache), under its byte bound.
package incr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"strings"

	"pallas/internal/cast"
)

// Fingerprint and key framing versions. Bumping any of these invalidates
// every persisted memo entry of that kind (old entries become misses, never
// corruption); TestIncrFingerprintFramingPinned pins the composed values.
const (
	frameLocal   = "incr-local-v1"
	frameTrans   = "incr-trans-v1"
	frameAmbient = "incr-ambient-v1"
	frameUnit    = "incr-unit-v1"
	frameFuncKey = "pallas-incr-func-v1"
	frameUnitKey = "pallas-incr-unit-v1"
)

// Hash is the incr content hash: the hex SHA-256 of the parts, each
// length-framed (8-byte little-endian length, then the bytes) so part
// boundaries cannot be confused — the same framing as pallas.ContentHash.
// The format is pinned by TestIncrHashFormatPinned; changing it silently
// invalidates every persisted memo record.
func Hash(parts ...string) string {
	h := sha256.New()
	for _, s := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LocalFingerprint hashes one function definition: its name, its canonical
// source rendering (cast.DeclString — comments never reach the AST and
// within-line whitespace does not change the rendering), and the line number
// of every node in the function. The line stream makes layout-shifting edits
// invalidate even when the rendering is unchanged, because memoized path
// records embed absolute line numbers and replay must stay byte-identical to
// a cold run.
func LocalFingerprint(fn *cast.FuncDecl) string {
	return Hash(frameLocal, fn.Name, cast.DeclString(fn), lineStream(fn))
}

// lineStream renders the line number of every node under n, in walk order.
func lineStream(n cast.Node) string {
	var sb strings.Builder
	cast.Walk(n, func(c cast.Node) bool {
		sb.WriteString(strconv.Itoa(c.Pos().Line))
		sb.WriteByte(',')
		return true
	})
	return sb.String()
}

// FuncKey is the memo-store key for one function's extraction result. It
// covers the extraction configuration (cfgFP, see Config.extractFingerprint
// in the root package), the unit's ambient fingerprint (globals, enums,
// records, prototypes — everything extraction can consult outside function
// bodies), and the function's transitive fingerprint. The unit name and spec
// are deliberately absent: extraction is spec-independent, so identical code
// in two units shares one memo entry.
func FuncKey(cfgFP, ambient, trans string) string {
	return Hash(frameFuncKey, cfgFP, ambient, trans)
}

// UnitKey is the memo-store key for a whole-unit verdict (report + path
// database). It covers everything that determines a clean run's output
// bytes: the analysis configuration, the unit name (reports echo it), the
// canonical spec text, and the unit fingerprint (ambient state plus every
// defined function's local fingerprint).
func UnitKey(cfgFP, unit, specText, unitFP string) string {
	return Hash(frameUnitKey, cfgFP, unit, specText, unitFP)
}
