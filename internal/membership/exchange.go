package membership

import "sync"

// Row is one member row as gossip carries it. A full row carries the
// whole Member. A stripped row carries only the ID, incarnation and the
// fields that move within an incarnation (heartbeat, state, epoch); the
// receiver merges it onto its own copy of the member at that
// incarnation, whose address, catalog digest, filter and driver are the
// same by definition.
type Row struct {
	Member
	// Stripped marks a row without its incarnation-fixed fields.
	Stripped bool
}

// strip drops the incarnation-fixed fields from m.
func strip(m Member) Row {
	return Row{Member: Member{
		ID:          m.ID,
		Incarnation: m.Incarnation,
		Heartbeat:   m.Heartbeat,
		State:       m.State,
		Epoch:       m.Epoch,
	}, Stripped: true}
}

// Request is what an exchange's initiator sends its peer.
type Request struct {
	// Rows is the initiator's digest: every row of its table, stripped
	// where the lane has already delivered that member's incarnation in
	// full. On a push it is the full rows a want asked for.
	Rows []Row
	// Push marks the want follow-up: the responder merges Rows and
	// answers nothing.
	Push bool
}

// Reply is the responder's answer to a digest.
type Reply struct {
	// Rows are the responder's rows newer than the digest: full where
	// the initiator lacks the member or holds an older incarnation,
	// stripped otherwise.
	Rows []Row
	// Want names the digest's stripped rows the responder could not
	// place (an unknown member, or a newer incarnation than its own).
	Want []string
}

// Lane is an initiator's memory of one peer connection: per member, the
// incarnation it has delivered there in full, so later digests can strip
// that member's row. It is only an optimization — a peer that lost what
// was delivered (it restarted, or forgot a tombstone) wants the row back
// and the initiator resends it. The zero value is ready to use, and a
// Lane is safe for concurrent exchanges.
type Lane struct {
	mu   sync.Mutex
	sent map[string]uint64
}

// mark records the full rows among rows as delivered.
func (l *Lane) mark(rows []Row) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, row := range rows {
		if row.Stripped {
			continue
		}
		if l.sent == nil {
			l.sent = make(map[string]uint64)
		}
		l.sent[row.ID] = row.Incarnation
	}
}

// Exchange runs one delta push-pull with a peer. send carries a message
// to the peer's Answer and returns its reply: the network in a node, a
// direct call in the simulator. The initiator sends its digest; the
// peer merges it and answers only what the initiator is missing; a
// non-empty want costs one follow-up push through the same send. Both
// tables end as a full push-pull of the two tables would leave them.
func (r *Registry) Exchange(l *Lane, send func(Request) (Reply, error)) error {
	req := Request{Rows: r.digest(l)}
	rep, err := send(req)
	if err != nil {
		return err
	}
	l.mark(req.Rows)
	r.mu.Lock()
	// Stripped reply rows are placeable by construction; one that is
	// not (the table moved meanwhile) is dropped until the next round.
	r.mergeRows(rep.Rows)
	var push []Row
	for _, id := range rep.Want {
		if e, ok := r.members[id]; ok {
			push = append(push, Row{Member: e.m})
		}
	}
	r.mu.Unlock()
	if len(push) == 0 {
		return nil
	}
	if _, err := send(Request{Rows: push, Push: true}); err != nil {
		return err
	}
	l.mark(push)
	return nil
}

// digest lists every row of the table for an exchange over l, stripping
// the rows whose incarnation l has already delivered.
func (r *Registry) digest(l *Lane) []Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	rows := make([]Row, 0, len(r.members))
	known := 0
	for _, e := range r.members {
		inc, ok := l.sent[e.m.ID]
		if ok {
			known++
		}
		if ok && inc == e.m.Incarnation {
			rows = append(rows, strip(e.m))
		} else {
			rows = append(rows, Row{Member: e.m})
		}
	}
	if known < len(l.sent) {
		// The table forgot members the lane remembers: drop them, so the
		// lane's memory stays bounded by the table.
		for id := range l.sent {
			if _, ok := r.members[id]; !ok {
				delete(l.sent, id)
			}
		}
	}
	return rows
}

// Answer is the responder's half of an exchange: merge the request's
// rows, then answer a digest with the rows the initiator is missing and
// the stripped rows that could not be placed.
func (r *Registry) Answer(req Request) Reply {
	r.mu.Lock()
	defer r.mu.Unlock()
	want := r.mergeRows(req.Rows)
	if req.Push {
		return Reply{}
	}
	return Reply{Rows: r.newer(req.Rows), Want: want}
}

// newer selects the rows whose merge would change the table the digest
// describes. Callers hold r.mu.
func (r *Registry) newer(digest []Row) []Row {
	// Stamp the entries the digest names instead of indexing the digest
	// in a map: an exchange is the hot path of gossip.
	r.stamp++
	var out []Row
	for _, d := range digest {
		e, ok := r.members[d.ID]
		if !ok {
			continue
		}
		e.seen = r.stamp
		switch {
		case e.m.Incarnation > d.Incarnation:
			out = append(out, Row{Member: e.m})
		case e.m.Incarnation == d.Incarnation && (e.m.Heartbeat > d.Heartbeat || e.m.State > d.State):
			out = append(out, strip(e.m))
		}
	}
	for _, e := range r.members {
		if e.seen != r.stamp {
			out = append(out, Row{Member: e.m}) // the initiator lacks it
		}
	}
	return out
}
