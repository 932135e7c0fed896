package main

import (
	"fmt"
	"strings"

	"bdbms"
	"bdbms/internal/dependency"
	"bdbms/internal/value"
)

// Users the benchmark connects as. The analyst only reads; the curator's
// writes fall under content approval because it is not the approver.
const (
	userAnalyst = "analyst"
	userCurator = "curator"
	userOLTP    = "app"
	secret      = "bench"
)

const loadBatch = 500

// loadOLTP creates the single wide Gene table of the oltp workload.
func loadOLTP(db *bdbms.DB, d *dataset) error {
	if _, err := db.Exec(`CREATE TABLE Gene (GID INT NOT NULL PRIMARY KEY, GName TEXT, OID INT, GLen INT, GScore INT, GSeq TEXT)`); err != nil {
		return err
	}
	return insertRows(db, "Gene", len(d.genes), func(b *strings.Builder, i int) {
		g := d.genes[i]
		fmt.Fprintf(b, "(%d, '%s', %d, %d, %d, '%s')", g.GID, g.GName, g.OID, g.GLen, g.GScore, g.GSeq)
	})
}

// loadAnnotated creates the Organism/Gene/Protein schema of analytics and
// curation, with a column-level annotation over every GName and one
// row-level annotation on each gene in d.rowAnns.
func loadAnnotated(db *bdbms.DB, d *dataset) error {
	for _, ddl := range []string{
		`CREATE TABLE Organism (OID INT NOT NULL PRIMARY KEY, OName TEXT)`,
		`CREATE TABLE Gene (GID INT NOT NULL PRIMARY KEY, GName TEXT, OID INT, GLen INT, GScore INT)`,
		`CREATE TABLE Protein (PID INT NOT NULL PRIMARY KEY, GID INT, PLen INT, PFunction TEXT)`,
		`CREATE INDEX ON Protein (GID)`,
		`CREATE ANNOTATION TABLE GNotes ON Gene`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			return fmt.Errorf("%s: %w", ddl, err)
		}
	}
	// The extra organism owns the genes the curator inserts.
	err := insertRows(db, "Organism", len(d.orgs)+1, func(b *strings.Builder, i int) {
		name := "curated"
		if i < len(d.orgs) {
			name = d.orgs[i]
		}
		fmt.Fprintf(b, "(%d, '%s')", i, name)
	})
	if err != nil {
		return err
	}
	err = insertRows(db, "Gene", len(d.genes), func(b *strings.Builder, i int) {
		g := d.genes[i]
		fmt.Fprintf(b, "(%d, '%s', %d, %d, %d)", g.GID, g.GName, g.OID, g.GLen, g.GScore)
	})
	if err != nil {
		return err
	}
	err = insertRows(db, "Protein", len(d.prots), func(b *strings.Builder, i int) {
		p := d.prots[i]
		fmt.Fprintf(b, "(%d, %d, %d, '%s')", p.PID, p.GID, p.PLen, p.PFunction)
	})
	if err != nil {
		return err
	}
	if _, err := db.Exec(`ADD ANNOTATION TO Gene.GNotes VALUE '<Annotation>names from GenoBase</Annotation>' ON (SELECT GName FROM Gene)`); err != nil {
		return err
	}
	for _, gid := range d.rowAnns {
		if _, err := db.Exec(annotateSQL(gid, "reviewed")); err != nil {
			return err
		}
	}
	return nil
}

func annotateSQL(gid int64, note string) string {
	return fmt.Sprintf(`ADD ANNOTATION TO Gene.GNotes VALUE '<Annotation>%s %d</Annotation>' ON (SELECT * FROM Gene WHERE GID = %d)`, note, gid, gid)
}

// insertRows loads n rows as multi-row INSERTs, one auto-commit each, so
// a file-backed load pays one commit per batch rather than per row.
func insertRows(db *bdbms.DB, table string, n int, row func(*strings.Builder, int)) error {
	var b strings.Builder
	for lo := 0; lo < n; lo += loadBatch {
		b.Reset()
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
		for i := lo; i < min(n, lo+loadBatch); i++ {
			if i > lo {
				b.WriteString(", ")
			}
			row(&b, i)
		}
		if _, err := db.Exec(b.String()); err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
	}
	return nil
}

// enableCuration puts Gene under content approval and registers the
// dependency rule that recomputes Protein.PLen when Gene.GLen changes.
func enableCuration(db *bdbms.DB) error {
	if _, err := db.Exec(`START CONTENT APPROVAL ON Gene COLUMNS (GLen, GName) APPROVED BY admin`); err != nil {
		return err
	}
	_, err := db.Dependencies().AddRule(dependency.Rule{
		Sources: []dependency.ColumnRef{{Table: "Gene", Column: "GLen"}},
		Targets: []dependency.ColumnRef{{Table: "Protein", Column: "PLen"}},
		Proc: dependency.Procedure{
			Name: "codon count", Executable: true,
			Apply: func(in []value.Value) (value.Value, error) {
				return value.NewInt(proteinLen(in[0].Int())), nil
			},
		},
		Link: &dependency.Link{SourceColumn: "GID", TargetColumn: "GID"},
	})
	return err
}

// querySQL is the text of each analytic query class for parameter arg.
func querySQL(o op) string {
	switch o.kind {
	case opScanAgg:
		return fmt.Sprintf(`SELECT COUNT(*), SUM(GLen), MIN(GScore), MAX(GScore) FROM Gene WHERE GScore >= %d`, o.arg)
	case opGroup:
		return `SELECT OID, COUNT(*), SUM(GLen) FROM Gene GROUP BY OID`
	case opSpillGroup:
		return `SELECT GID, COUNT(*), SUM(PLen) FROM Protein GROUP BY GID`
	case opJoin:
		return fmt.Sprintf(`SELECT o.OName, COUNT(*), SUM(p.PLen) FROM Gene g, Protein p, Organism o WHERE g.GID = p.GID AND g.OID = o.OID AND g.GScore < %d GROUP BY o.OName`, o.arg)
	case opTopN:
		return `SELECT GID, GScore FROM Gene ORDER BY GScore DESC LIMIT 10`
	case opAnnot:
		return fmt.Sprintf(`SELECT GID, GName, GScore FROM Gene ANNOTATION(GNotes) WHERE OID = %d`, o.arg)
	case opCurUpdate:
		return fmt.Sprintf(`UPDATE Gene SET GLen = %d WHERE GID = %d`, o.arg, o.key)
	case opCurInsert:
		return fmt.Sprintf(`INSERT INTO Gene VALUES (%d, 'cur%d', %d, %d, %d)`, o.key, o.key, annotatedOrgs, o.arg, o.key)
	case opCurAnnotate:
		return annotateSQL(o.key, "curated")
	}
	panic("querySQL: no text for " + o.kind.String())
}
