package storage

// Columnar scan mirror: a column-major copy of one table's live rows, built
// lazily for the vectorized executor (internal/exec/batch.go) and then kept
// current by every heap mutation.
//
// The heap stays the source of truth; the mirror is an acceleration
// structure maintained under the same lock as the heap:
//
//   - Rows are sliced into chunks in ascending RowID order, the order the row
//     scan produces. Sealed chunks are immutable. New rows append to an open
//     tail chunk whose vectors only ever grow, so an insert costs O(columns)
//     amortized and the tail is encoded once, when it fills.
//   - Every mutation (Table.noteWrite, called with t.mu held exclusively)
//     patches the mirror: an update or delete re-encodes just the chunk
//     holding the row, from that chunk's decoded vectors — never from the
//     heap — and the mirror's chunk list is replaced copy-on-write, so every
//     other chunk pointer is shared.
//   - A reader takes the chunk list under t.mu's read lock. Since mirror and
//     heap change under the same lock, the chunk list is one consistent cut
//     of the heap, and chunks a reader holds are never modified afterwards —
//     it can scan them lock-free.
//
// MVCC snapshots read the mirror through Snapshot.ColumnarScan: under one
// read lock it takes the chunk list and folds the snapshot's overlay (the
// rows it must read as before-images, see mvcc.go). Chunks no overlay row
// touches are scanned as they are; each touched chunk is rebuilt privately,
// on demand, with post-snapshot inserts removed, updated rows reverted and
// deleted rows put back in RowID order. The executor therefore sees
// ordinary chunks with exactly the rows, values and order of the snapshot's
// row scan.
//
// Within a chunk each column becomes a typed vector: INT and FLOAT columns
// as raw int64/float64 slices, TEXT/SEQUENCE columns either raw or
// dictionary-coded when the chunk holds few distinct strings, everything else
// as boxed values. The dictionary code vector and the NULL-validity vector
// are byte strings, and internal/rle compresses them per sealed chunk
// whenever the run-length form is smaller — which is exactly the
// annotation-heavy / low-cardinality / mostly-non-NULL shapes the paper's
// workloads produce. The open tail and private overlay chunks stay raw.

import (
	"sort"
	"sync/atomic"

	"bdbms/internal/catalog"
	"bdbms/internal/rle"
	"bdbms/internal/value"
)

// ColChunkRows is the number of rows per columnar chunk; the executor's batch
// size. Cache-resident vectors of this length keep a scan's working set in
// L1/L2 while amortizing per-batch overhead over ~1k rows. Chunks patched by
// mid-table inserts may exceed it; consumers must not assume a bound.
const ColChunkRows = 1024

// colCacheMaxRows bounds the table size the cache will mirror: the columnar
// copy roughly doubles the table's resident footprint, which is the wrong
// trade for huge tables until chunks can page in and out.
const colCacheMaxRows = 4 << 20

// ColKind is the physical vector representation of one column.
type ColKind uint8

const (
	// ColInt stores int64 payloads in Ints.
	ColInt ColKind = iota
	// ColFloat stores float64 payloads in Floats.
	ColFloat
	// ColText stores strings: raw in Strs, or dictionary-coded in
	// Dict+Codes/CodesRLE when the chunk has at most 255 distinct values.
	ColText
	// ColOther stores boxed values verbatim (BOOL, TIMESTAMP).
	ColOther
)

// colKindOf maps a declared column type to its vector representation.
func colKindOf(typ value.Type) ColKind {
	switch typ {
	case value.Int:
		return ColInt
	case value.Float:
		return ColFloat
	case value.Text, value.Sequence:
		return ColText
	default:
		return ColOther
	}
}

// ColVec is one column of one chunk.
type ColVec struct {
	Kind ColKind
	// Type is the declared column type, so the executor can rebox payloads
	// as the exact value the row path would produce (TEXT vs SEQUENCE).
	Type value.Type

	Ints   []int64
	Floats []float64

	Strs []string // raw text payloads (nil when dictionary-coded)
	Dict []string // dictionary values, indexed by code
	// Codes holds one dictionary code per row; exactly one of Codes and
	// CodesRLE is set when Dict is. CodesRLE is chosen when the run-length
	// form is smaller (clustered or low-cardinality chunks).
	Codes    []byte
	CodesRLE *rle.Sequence

	Vals []value.Value // ColOther payloads

	// NULL validity: all three nil means every row is valid. Otherwise one
	// of Valid (raw, 1 = valid) or ValidRLE (run-length, for the common
	// mostly-valid chunks) is set.
	Valid    []byte
	ValidRLE *rle.Sequence
}

// DecodeCodes returns the chunk's dictionary codes as a flat byte vector,
// expanding the run-length form into dst when needed.
func (v *ColVec) DecodeCodes(dst []byte) []byte {
	if v.CodesRLE != nil {
		return v.CodesRLE.AppendDecoded(dst[:0])
	}
	return v.Codes
}

// DecodeValid returns the chunk's validity vector (1 = valid), or nil when
// every row is valid, expanding the run-length form into dst when needed.
func (v *ColVec) DecodeValid(dst []byte) []byte {
	if v.ValidRLE != nil {
		return v.ValidRLE.AppendDecoded(dst[:0])
	}
	return v.Valid
}

// ColChunk is consecutive rows in column-major form. A chunk handed to a
// reader is immutable.
type ColChunk struct {
	RowIDs []int64
	Cols   []ColVec
}

// Rows returns the number of rows in the chunk.
func (c *ColChunk) Rows() int { return len(c.RowIDs) }

// lastID returns the chunk's highest RowID. Mirror chunks are never empty.
func (c *ColChunk) lastID() int64 { return c.RowIDs[len(c.RowIDs)-1] }

// colMirror is a table's maintained columnar mirror. Its fields are guarded
// by the table's mu: writers patch it under the exclusive lock, readers take
// views under the read lock.
type colMirror struct {
	schema *catalog.Schema
	sealed []*ColChunk                 // immutable, non-empty, ascending RowID ranges
	tail   *chunkBuilder               // open tail: raw vectors, append-only while shared
	view   atomic.Pointer[[]*ColChunk] // cached chunk list; nil after a write
}

func newColMirror(schema *catalog.Schema) *colMirror {
	return &colMirror{schema: schema, tail: newChunkBuilder(schema, ColChunkRows)}
}

// chunks returns the mirror's current chunk list: every live row, in
// ascending RowID order. Readers call it under the table's read lock,
// possibly concurrently; the list is cached until the next write.
func (m *colMirror) chunks() []*ColChunk {
	if v := m.view.Load(); v != nil {
		return *v
	}
	chunks := m.sealed[:len(m.sealed):len(m.sealed)]
	if m.tail.len() > 0 {
		chunks = append(chunks, m.tail.view())
	}
	m.view.Store(&chunks)
	return chunks
}

// appendRow adds a row past the mirror's highest RowID to the open tail.
func (m *colMirror) appendRow(rowID int64, row value.Row) {
	m.tail.add(rowID, row)
	m.sealFullTail()
}

// sealFullTail encodes a full tail into a sealed chunk and opens a new one.
func (m *colMirror) sealFullTail() {
	if m.tail.len() >= ColChunkRows {
		m.sealed = append(m.sealed, m.tail.finish())
		m.tail = newChunkBuilder(m.schema, ColChunkRows)
	}
}

// apply records that rowID now holds row (nil: the row is gone). Inserts past
// the last row append to the tail; anything else re-encodes the one chunk
// whose RowID range holds rowID, copy-on-write. Caller holds t.mu
// exclusively.
func (m *colMirror) apply(rowID int64, row value.Row) {
	n := len(m.sealed)
	if row != nil {
		if last, ok := m.lastID(); !ok || rowID > last {
			m.appendRow(rowID, row)
			return
		}
	}
	patch := []rowPatch{{id: rowID, row: row}}
	ci := sort.Search(n, func(i int) bool { return m.sealed[i].lastID() >= rowID })
	if ci == n {
		m.tail = m.tail.patched(patch)
		m.sealFullTail()
		return
	}
	b := unpack(m.sealed[ci]).patched(patch)
	sealed := make([]*ColChunk, 0, n)
	sealed = append(sealed, m.sealed[:ci]...)
	if b.len() > 0 {
		sealed = append(sealed, b.finish())
	}
	m.sealed = append(sealed, m.sealed[ci+1:]...)
}

// lastID returns the highest RowID in the mirror.
func (m *colMirror) lastID() (int64, bool) {
	if n := m.tail.len(); n > 0 {
		return m.tail.rowIDs[n-1], true
	}
	if n := len(m.sealed); n > 0 {
		return m.sealed[n-1].lastID(), true
	}
	return 0, false
}

// noteWrite records one heap mutation — rowID now stores row, or nothing when
// row is nil — and keeps the columnar mirror current. It is called, with t.mu
// held exclusively, from every path that changes stored rows (insert, update,
// delete and their recovery/undo appliers). A table without a mirror pays
// only the writeSeq bump and one atomic load.
func (t *Table) noteWrite(rowID int64, row value.Row) {
	t.writeSeq.Add(1)
	m := t.mirror.Load()
	if m == nil {
		return
	}
	if len(t.rowIndex) > colCacheMaxRows {
		t.mirror.Store(nil)
		return
	}
	m.apply(rowID, row)
	m.view.Store(nil)
}

// mirrorLocked returns the table's columnar mirror, building it from the
// heap on first use. It returns nil when the table is too large to mirror or
// a heap read fails. Caller holds t.mu (read or write); colMu makes
// concurrent readers share one build.
func (t *Table) mirrorLocked() *colMirror {
	if m := t.mirror.Load(); m != nil {
		return m
	}
	if len(t.rowIndex) > colCacheMaxRows {
		return nil
	}
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if m := t.mirror.Load(); m != nil {
		return m
	}
	ids := make([]int64, 0, len(t.rowIndex))
	for id := range t.rowIndex {
		ids = append(ids, id)
	}
	ids = sortDedupeIDs(ids)
	m := newColMirror(t.schema)
	for _, rowID := range ids {
		rec, err := t.file.Get(t.rowIndex[rowID])
		if err != nil {
			return nil
		}
		_, row, err := decodeStored(rec)
		if err != nil {
			return nil
		}
		m.appendRow(rowID, row)
	}
	t.mirror.Store(m)
	return m
}

// rowPatch is one row a chunk must read differently from its stored form:
// row holds the values to read, or is nil when the row must be absent.
type rowPatch struct {
	id  int64
	row value.Row
}

// ColScan is one table's columnar data as a snapshot reads it: the mirror's
// chunk list at one consistent cut, plus the snapshot's overlay rows grouped
// under the chunk whose RowID range holds them.
type ColScan struct {
	chunks  []*ColChunk
	patches [][]rowPatch // per chunk, ascending; nil when no overlay applies
}

// NumChunks returns the number of chunks the scan yields.
func (c *ColScan) NumChunks() int { return len(c.chunks) }

// Overlaid reports whether any chunk reads through the snapshot's overlay.
func (c *ColScan) Overlaid() bool { return c.patches != nil }

// Chunk returns chunk i as the snapshot sees it: the shared mirror chunk when
// no overlay row touches it, otherwise a private copy with the overlay
// applied. The result may be empty.
func (c *ColScan) Chunk(i int) *ColChunk {
	if c.patches == nil || len(c.patches[i]) == 0 {
		return c.chunks[i]
	}
	return unpack(c.chunks[i]).patched(c.patches[i]).view()
}

// ColumnarScan returns the table's columnar data as of the snapshot, building
// the mirror on first use, or nil when the table cannot be mirrored. The
// mirror's chunk list and the overlay are taken under one read lock, so they
// describe the same heap state.
func (s *Snapshot) ColumnarScan(t *Table) *ColScan {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	ov := s.overlayFor(t)
	t.mu.RLock()
	defer t.mu.RUnlock()
	m := t.mirrorLocked()
	if m == nil {
		return nil
	}
	s.mergeLocked(ov, t)
	cs := &ColScan{chunks: m.chunks()}
	if len(ov.rows) == 0 {
		return cs
	}
	ps := make([]rowPatch, 0, len(ov.rows))
	for id, r := range ov.rows {
		p := rowPatch{id: id}
		if r.existed {
			p.row = r.vals
		}
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	if len(cs.chunks) == 0 {
		// Every row the snapshot sees was deleted since: restore them into
		// one otherwise empty chunk.
		cs.chunks = []*ColChunk{newChunkBuilder(t.schema, 0).view()}
	}
	cs.patches = make([][]rowPatch, len(cs.chunks))
	ci := 0
	for _, p := range ps {
		for ci < len(cs.chunks)-1 && p.id > cs.chunks[ci].lastID() {
			ci++
		}
		cs.patches[ci] = append(cs.patches[ci], p)
	}
	return cs
}

// chunkBuilder accumulates one chunk row-at-a-time; finish seals it into its
// final encoding and view exposes it raw.
type chunkBuilder struct {
	rowIDs []int64
	cols   []chunkCol
}

type chunkCol struct {
	kind  ColKind
	typ   value.Type
	ints  []int64
	flts  []float64
	strs  []string
	vals  []value.Value
	valid []byte // 1 = valid; nil in an unpacked source means all valid
	nulls int
}

func newChunkBuilder(schema *catalog.Schema, n int) *chunkBuilder {
	b := &chunkBuilder{rowIDs: make([]int64, 0, n), cols: make([]chunkCol, len(schema.Columns))}
	for i := range schema.Columns {
		b.cols[i].init(colKindOf(schema.Columns[i].Type), schema.Columns[i].Type, n)
	}
	return b
}

func (c *chunkCol) init(kind ColKind, typ value.Type, n int) {
	c.kind, c.typ = kind, typ
	c.valid = make([]byte, 0, n)
	switch kind {
	case ColInt:
		c.ints = make([]int64, 0, n)
	case ColFloat:
		c.flts = make([]float64, 0, n)
	case ColText:
		c.strs = make([]string, 0, n)
	default:
		c.vals = make([]value.Value, 0, n)
	}
}

func (b *chunkBuilder) len() int { return len(b.rowIDs) }

func (b *chunkBuilder) add(rowID int64, row value.Row) {
	b.rowIDs = append(b.rowIDs, rowID)
	for i := range b.cols {
		c := &b.cols[i]
		var v value.Value
		if i < len(row) {
			v = row[i]
		}
		if v.IsNull() {
			c.nulls++
			c.valid = append(c.valid, 0)
		} else {
			c.valid = append(c.valid, 1)
		}
		switch c.kind {
		case ColInt:
			c.ints = append(c.ints, v.Int())
		case ColFloat:
			c.flts = append(c.flts, v.Float())
		case ColText:
			c.strs = append(c.strs, v.Text())
		default:
			c.vals = append(c.vals, v)
		}
	}
}

// appendRange copies rows [lo, hi) of src column by column.
func (b *chunkBuilder) appendRange(src *chunkBuilder, lo, hi int) {
	if lo >= hi {
		return
	}
	b.rowIDs = append(b.rowIDs, src.rowIDs[lo:hi]...)
	for i := range b.cols {
		c, s := &b.cols[i], &src.cols[i]
		switch c.kind {
		case ColInt:
			c.ints = append(c.ints, s.ints[lo:hi]...)
		case ColFloat:
			c.flts = append(c.flts, s.flts[lo:hi]...)
		case ColText:
			c.strs = append(c.strs, s.strs[lo:hi]...)
		default:
			c.vals = append(c.vals, s.vals[lo:hi]...)
		}
		if s.valid == nil {
			for k := lo; k < hi; k++ {
				c.valid = append(c.valid, 1)
			}
			continue
		}
		c.valid = append(c.valid, s.valid[lo:hi]...)
		for _, ok := range s.valid[lo:hi] {
			if ok == 0 {
				c.nulls++
			}
		}
	}
}

// patched returns a new builder holding b's rows with ps (ascending, one per
// RowID) applied: a patch replaces the row with its RowID, inserts it in
// RowID order when absent, or removes it when the patch row is nil. b itself
// is left untouched, so chunks sharing its vectors stay valid.
func (b *chunkBuilder) patched(ps []rowPatch) *chunkBuilder {
	out := &chunkBuilder{rowIDs: make([]int64, 0, b.len()+len(ps)), cols: make([]chunkCol, len(b.cols))}
	for i := range b.cols {
		out.cols[i].init(b.cols[i].kind, b.cols[i].typ, b.len()+len(ps))
	}
	i := 0
	for _, p := range ps {
		j := i + sort.Search(b.len()-i, func(k int) bool { return b.rowIDs[i+k] >= p.id })
		out.appendRange(b, i, j)
		i = j
		if i < b.len() && b.rowIDs[i] == p.id {
			i++
		}
		if p.row != nil {
			out.add(p.id, p.row)
		}
	}
	out.appendRange(b, i, b.len())
	return out
}

// unpack exposes a chunk's decoded vectors as a builder, for use as the
// read-only source of patched. Raw vectors are shared, not copied.
func unpack(ch *ColChunk) *chunkBuilder {
	b := &chunkBuilder{rowIDs: ch.RowIDs, cols: make([]chunkCol, len(ch.Cols))}
	for i := range ch.Cols {
		v, c := &ch.Cols[i], &b.cols[i]
		c.kind, c.typ = v.Kind, v.Type
		c.ints, c.flts, c.strs, c.vals = v.Ints, v.Floats, v.Strs, v.Vals
		if v.Dict != nil {
			codes := v.DecodeCodes(nil)
			c.strs = make([]string, len(codes))
			for k, code := range codes {
				c.strs[k] = v.Dict[code]
			}
		}
		c.valid = v.DecodeValid(nil)
	}
	return b
}

// view exposes the builder's rows as a raw (unencoded) chunk. The chunk
// shares the builder's vectors, capped at their current length, so rows the
// builder appends later stay invisible to it.
func (b *chunkBuilder) view() *ColChunk {
	n := b.len()
	ch := &ColChunk{RowIDs: b.rowIDs[:n:n], Cols: make([]ColVec, len(b.cols))}
	for i := range b.cols {
		c, vec := &b.cols[i], &ch.Cols[i]
		vec.Kind, vec.Type = c.kind, c.typ
		switch c.kind {
		case ColInt:
			vec.Ints = c.ints[:n:n]
		case ColFloat:
			vec.Floats = c.flts[:n:n]
		case ColText:
			vec.Strs = c.strs[:n:n]
		default:
			vec.Vals = c.vals[:n:n]
		}
		if c.nulls > 0 {
			vec.Valid = c.valid[:n:n]
		}
	}
	return ch
}

// maxDictSize bounds the per-chunk dictionary so codes fit one byte.
const maxDictSize = 255

// finish seals the builder into a chunk, choosing each column's encoding.
func (b *chunkBuilder) finish() *ColChunk {
	ch := b.view()
	for i := range b.cols {
		c, vec := &b.cols[i], &ch.Cols[i]
		if c.kind == ColText {
			if dict, codes, ok := dictEncode(c.strs); ok {
				vec.Strs, vec.Dict = nil, dict
				vec.Codes, vec.CodesRLE = rleOrRaw(codes)
			}
		}
		if c.nulls > 0 {
			vec.Valid, vec.ValidRLE = rleOrRaw(c.valid)
		}
	}
	return ch
}

// dictEncode builds a dictionary encoding of the chunk's strings when at most
// maxDictSize distinct values occur. The dictionary preserves first-seen
// order; comparisons always go through the decoded string, so the order
// within the dictionary carries no semantics.
func dictEncode(strs []string) (dict []string, codes []byte, ok bool) {
	idx := make(map[string]int, 16)
	codes = make([]byte, len(strs))
	for i, s := range strs {
		code, seen := idx[s]
		if !seen {
			if len(dict) >= maxDictSize {
				return nil, nil, false
			}
			code = len(dict)
			dict = append(dict, s)
			idx[s] = code
		}
		codes[i] = byte(code)
	}
	return dict, codes, true
}

// rleOrRaw keeps the byte vector raw or run-length encodes it, whichever is
// smaller (a Run costs ~16 resident bytes, so RLE only wins on real runs).
func rleOrRaw(raw []byte) ([]byte, *rle.Sequence) {
	seq := rle.Encode(string(raw))
	if seq.NumRuns()*16 < len(raw) {
		return nil, seq
	}
	return raw, nil
}
