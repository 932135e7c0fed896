package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// Every input the benchmark feeds the engine is derived here from the
// --seed value, so one seed always yields byte-identical data and operation
// streams. The engine never sees the seed, only what it generates.

// gene is one row of the Gene table. GScore values are a permutation, so
// ORDER BY GScore has no ties and Top-N answers are unique.
type gene struct {
	GID    int64
	GName  string
	OID    int64
	GLen   int64
	GScore int64
	GSeq   string // empty when the schema has no sequence column
}

// protein is one row of the Protein table; PLen is derived from its gene's
// GLen, which is the dependency rule curation registers.
type protein struct {
	PID       int64
	GID       int64
	PLen      int64
	PFunction string
}

// dataset is the generated content of one database.
type dataset struct {
	orgs    []string  // Organism.OName by OID
	genes   []gene    // GID == index
	prots   []protein // PID == index
	rowAnns []int64   // GIDs that carry one row-level annotation each
}

// sizes fixes a dataset's shape.
type sizes struct {
	genes, protsPerGene, orgs, seqLen, rowAnns int
}

var dnaBases = []byte("ACGT")

// proteinLen is the dependency procedure from Gene.GLen to Protein.PLen:
// a protein is a third of its gene's length, in codons.
func proteinLen(glen int64) int64 { return glen / 3 }

func genDataset(seed int64, sz sizes) *dataset {
	r := rand.New(rand.NewSource(seed))
	d := &dataset{orgs: make([]string, sz.orgs)}
	for i := range d.orgs {
		d.orgs[i] = fmt.Sprintf("org-%02d-%04d", i, r.Intn(10000))
	}
	scores := r.Perm(sz.genes)
	d.genes = make([]gene, sz.genes)
	seq := make([]byte, sz.seqLen)
	for i := range d.genes {
		g := gene{
			GID:    int64(i),
			GName:  fmt.Sprintf("g%06d-%03d", i, r.Intn(1000)),
			OID:    int64(r.Intn(sz.orgs)),
			GLen:   int64(300 + r.Intn(3000)),
			GScore: int64(scores[i]),
		}
		if sz.seqLen > 0 {
			for j := range seq {
				seq[j] = dnaBases[r.Intn(4)]
			}
			g.GSeq = string(seq)
		}
		d.genes[i] = g
	}
	d.prots = make([]protein, 0, sz.genes*sz.protsPerGene)
	for _, g := range d.genes {
		for k := 0; k < sz.protsPerGene; k++ {
			d.prots = append(d.prots, protein{
				PID:       int64(len(d.prots)),
				GID:       g.GID,
				PLen:      proteinLen(g.GLen),
				PFunction: fmt.Sprintf("fn-%d", r.Intn(500)),
			})
		}
	}
	for _, i := range r.Perm(sz.genes)[:sz.rowAnns] {
		d.rowAnns = append(d.rowAnns, int64(i))
	}
	sort.Slice(d.rowAnns, func(i, j int) bool { return d.rowAnns[i] < d.rowAnns[j] })
	return d
}

// opKind names one operation class; its string is the class name used in
// metric names.
type opKind int

const (
	opPoint opKind = iota
	opUpdate
	opScanAgg
	opGroup
	opSpillGroup
	opJoin
	opTopN
	opAnnot
	opCurUpdate
	opCurInsert
	opCurAnnotate
	numOpKinds
)

var opNames = [numOpKinds]string{
	"point", "commit", "scan_agg", "group", "spill_group", "join", "topn", "annot",
	"cur_update", "cur_insert", "cur_annotate",
}

func (k opKind) String() string { return opNames[k] }

// isWrite reports whether the class commits a transaction.
func (k opKind) isWrite() bool {
	return k == opUpdate || k == opCurUpdate || k == opCurInsert || k == opCurAnnotate
}

// op is one generated operation. key is a GID; arg is the class's
// parameter (the new GScore or GLen, a filter threshold or an OID).
type op struct {
	kind opKind
	key  int64
	arg  int64
}

// oltpStream yields connection conn's operations: 90% point reads over a
// Zipf-skewed key, 10% updates of a skewed key the connection owns (keys
// with key%conns == conn), so the last acknowledged value of each key is
// well defined even with two writers.
type oltpStream struct {
	r     *rand.Rand
	zipf  *rand.Zipf
	conn  int
	conns int
	n     int64
}

func newOLTPStream(seed int64, conn, conns, n int) *oltpStream {
	r := rand.New(rand.NewSource(seed*1000003 + int64(conn)))
	return &oltpStream{r: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(n-1)), conn: conn, conns: conns, n: int64(n)}
}

func (s *oltpStream) next() op {
	k := int64(s.zipf.Uint64())
	if s.r.Intn(10) != 0 {
		return op{kind: opPoint, key: k}
	}
	k = k - k%int64(s.conns) + int64(s.conn)
	if k >= s.n {
		k -= int64(s.conns)
	}
	return op{kind: opUpdate, key: k, arg: int64(s.r.Intn(1 << 30))}
}

// queryStream cycles round-robin over classes, and each class cycles over
// its parameter set, so every run issues the same mix of query shapes and
// only the data differs between seeds.
type queryStream struct {
	classes []opKind
	params  map[opKind][]int64
	i       int
}

func newQueryStream(classes []opKind, params map[opKind][]int64) *queryStream {
	return &queryStream{classes: classes, params: params}
}

func (s *queryStream) next() op {
	k := s.classes[s.i%len(s.classes)]
	o := op{kind: k}
	if ps := s.params[k]; len(ps) > 0 {
		o.arg = ps[(s.i/len(s.classes))%len(ps)]
	}
	s.i++
	return o
}

// queryParams returns each parameterized class's parameters. GScore is a
// permutation of 0..n-1, so the scan_agg thresholds keep 3/4, 1/2 and 1/4
// of the genes and the join thresholds 1/12, 1/8 and 1/6 of them whatever
// the seed; annot reads three organisms drawn from the seed.
func queryParams(seed int64, d *dataset) map[opKind][]int64 {
	r := rand.New(rand.NewSource(seed*31 + 5))
	n := int64(len(d.genes))
	orgs := r.Perm(len(d.orgs))
	return map[opKind][]int64{
		opScanAgg: {n / 4, n / 2, 3 * n / 4},
		opJoin:    {n / 12, n / 8, n / 6},
		opAnnot:   {int64(orgs[0]), int64(orgs[1]), int64(orgs[2])},
	}
}

// curatorStream yields the curator's writes, cycling through a GLen update
// of a uniform existing gene, an insert of a fresh gene and a row
// annotation of a uniform existing gene.
// Inserted genes belong to the extra "curated" organism (OID = orgs) and
// score above every loaded gene, so the analyst's filtered counts move only
// by inserts.
type curatorStream struct {
	r       *rand.Rand
	n       int64
	nextGID int64
	i       int
}

func newCuratorStream(seed int64, n int, firstGID int64) *curatorStream {
	return &curatorStream{r: rand.New(rand.NewSource(seed*104729 + 3)), n: int64(n), nextGID: firstGID}
}

func (s *curatorStream) next() op {
	s.i++
	switch s.i % 3 {
	case 1:
		return op{kind: opCurUpdate, key: s.r.Int63n(s.n), arg: int64(300 + s.r.Intn(3000))}
	case 2:
		k := s.nextGID
		s.nextGID++
		return op{kind: opCurInsert, key: k, arg: int64(300 + s.r.Intn(3000))}
	default:
		return op{kind: opCurAnnotate, key: s.r.Int63n(s.n)}
	}
}
