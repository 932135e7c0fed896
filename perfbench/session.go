package main

import (
	"context"
	"time"

	"bdbms"
	"bdbms/internal/server/client"
	"bdbms/internal/sqlparse"
	"bdbms/internal/value"
)

// The oltp statements, prepared once per connection.
const (
	pointSQL  = `SELECT GID, GName, OID, GLen, GScore, GSeq FROM Gene WHERE GID = ?`
	updateSQL = `UPDATE Gene SET GScore = ? WHERE GID = ?`
)

// result is what one operation returned, in the client-neutral form the
// checks read.
type result struct {
	rows     []value.Row
	anns     []int // distinct annotations on each row
	affected int
}

// executor runs operations for one client: over the wire or embedded.
// Every call into the layer below is one span of tr under root.
type executor interface {
	do(o op, tr *tracer, root int32, req int64) (*result, error)
	close() error
}

// wireExec drives one network connection. oltp ops use statements
// prepared at connect; every other class is sent as text, as an ad-hoc
// client would.
type wireExec struct {
	c             *client.Conn
	point, update *client.Stmt
}

func dialWire(addr, user string, prepared bool) (*wireExec, error) {
	c, err := client.DialTimeout(addr, user, secret, 30*time.Second)
	if err != nil {
		return nil, err
	}
	e := &wireExec{c: c}
	if prepared {
		if e.point, err = c.Prepare(pointSQL); err == nil {
			e.update, err = c.Prepare(updateSQL)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	return e, nil
}

func (e *wireExec) close() error { return e.c.Close() }

func (e *wireExec) do(o op, tr *tracer, root int32, req int64) (*result, error) {
	call := func(name string, f func() error) error {
		id := tr.begin(name, root, req)
		err := f()
		tr.end(id)
		return err
	}
	var rows *client.Rows
	switch o.kind {
	case opPoint:
		if err := call("Stmt.Query", func() (err error) { rows, err = e.point.Query(o.key); return }); err != nil {
			return nil, err
		}
	case opUpdate:
		res := &result{}
		err := call("Conn.Begin", e.c.Begin)
		if err == nil {
			err = call("Stmt.Exec", func() (err error) { res.affected, _, err = e.update.Exec(o.arg, o.key); return })
			if err != nil {
				e.c.Rollback()
				return nil, err
			}
			err = call("Conn.Commit", e.c.Commit)
		}
		return res, err
	default:
		if err := call("Conn.Query", func() (err error) { rows, err = e.c.Query(querySQL(o)); return }); err != nil {
			return nil, err
		}
	}
	res := &result{}
	err := call("Rows.Next", func() error {
		for rows.Next() {
			res.rows = append(res.rows, rows.Row())
			var seen []int64
			for _, cell := range rows.Annotations() {
				for _, a := range cell {
					if !containsID(seen, a.ID) {
						seen = append(seen, a.ID)
					}
				}
			}
			res.anns = append(res.anns, len(seen))
		}
		if err := rows.Err(); err != nil {
			rows.Close()
			return err
		}
		res.affected = rows.Affected()
		return rows.Close()
	})
	return res, err
}

func containsID(ids []int64, id int64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// embedExec runs the same operations on a *bdbms.DB session in process, the
// way the server executes a request: Prepare, then Stmt.Query, drained.
// Parsing is also timed on its own through sqlparse.Parse, since Prepare
// gives no hook inside it.
type embedExec struct {
	s             *bdbms.Session
	point, update *bdbms.Stmt
}

func newEmbedExec(db *bdbms.DB, user string, prepared bool, tr *tracer) (*embedExec, error) {
	e := &embedExec{s: db.Session(user)}
	if prepared {
		var err error
		if e.point, err = e.prepare(pointSQL, tr, -1, 0); err == nil {
			e.update, err = e.prepare(updateSQL, tr, -1, 0)
		}
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *embedExec) close() error { return nil }

func (e *embedExec) prepare(sql string, tr *tracer, root int32, req int64) (*bdbms.Stmt, error) {
	id := tr.begin("sqlparse.Parse", root, req)
	_, err := sqlparse.Parse(sql)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("Session.Prepare", root, req)
	st, err := e.s.Prepare(sql)
	tr.end(id)
	return st, err
}

func (e *embedExec) do(o op, tr *tracer, root int32, req int64) (*result, error) {
	ctx := context.Background()
	st, args := e.point, []any{o.key}
	switch o.kind {
	case opPoint:
	case opUpdate:
		st, args = e.update, []any{o.arg, o.key}
	default:
		var err error
		if st, err = e.prepare(querySQL(o), tr, root, req); err != nil {
			return nil, err
		}
		args = nil
	}
	var tx *bdbms.Tx
	if o.kind.isWrite() {
		var err error
		if tx, err = e.s.Begin(ctx); err != nil {
			return nil, err
		}
	}
	res, err := e.query(ctx, st, args, tr, root, req)
	if tx == nil {
		return res, err
	}
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	id := tr.begin("Tx.Commit", root, req)
	err = tx.Commit()
	tr.end(id)
	return res, err
}

// query runs st: the Stmt.Query span lasts until the first row is
// available (or the result is known empty), the Rows.Next span covers the
// rest of the drain.
func (e *embedExec) query(ctx context.Context, st *bdbms.Stmt, args []any, tr *tracer, root int32, req int64) (*result, error) {
	id := tr.begin("Stmt.Query", root, req)
	rows, err := st.Query(ctx, args...)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	more := rows.Next()
	tr.end(id)
	id = tr.begin("Rows.Next", root, req)
	defer tr.end(id)
	res := &result{}
	for ; more; more = rows.Next() {
		row := rows.Row()
		res.rows = append(res.rows, append(value.Row(nil), row.Values...))
		res.anns = append(res.anns, len(row.AnnotationsFlat()))
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return nil, err
	}
	res.affected = rows.Affected()
	return res, rows.Close()
}
