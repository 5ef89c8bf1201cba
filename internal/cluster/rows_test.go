package cluster

import (
	"errors"
	"reflect"
	"testing"

	"github.com/qamarket/qamarket/internal/membership"
)

func codecTestRows() []membership.Row {
	return []membership.Row{
		{Member: membership.Member{
			ID: "m48-07", Addr: "127.0.0.1:40123", Incarnation: 3, Heartbeat: 1 << 40,
			State: membership.StateSuspect, CatalogDigest: "5:0123abcd", Driver: "vector",
			CatalogFilter: "00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff", Epoch: 912,
		}},
		{Member: membership.Member{ID: "n2", Incarnation: 1, Heartbeat: 17, State: membership.StateLeft, Epoch: 4}, Stripped: true},
		{Member: membership.Member{ID: "n3", Addr: "x", State: membership.StateDead}},
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := codecTestRows()
	b := appendRows(nil, rows)
	got, err := decodeRows(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, rows)
	}
	if got, err := decodeRows(appendRows(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty table: %v, %v", got, err)
	}
	// An unknown state byte decodes as dead, like ParseState.
	one := appendRows(nil, rows[1:2])
	one[len(one)-2] = 9
	if got, err := decodeRows(one); err != nil || got[0].State != membership.StateDead {
		t.Fatalf("unknown state: %+v, %v", got, err)
	}
}

func TestDecodeRowsRejectsMalformed(t *testing.T) {
	good := appendRows(nil, codecTestRows())
	emptyID := appendRows(nil, []membership.Row{{Member: membership.Member{ID: "x"}, Stripped: true}})
	emptyID[1] = 0 // the ID length
	badFlags := appendRows(nil, []membership.Row{{Member: membership.Member{ID: "x"}, Stripped: true}})
	badFlags[len(badFlags)-1] = 0x80
	for name, b := range map[string][]byte{
		"empty":         nil,
		"truncated":     good[:len(good)-3],
		"trailing":      append(append([]byte{}, good...), 0),
		"huge count":    {0xff, 0xff, 0xff, 0xff, 0x0f},
		"empty id":      emptyID,
		"unknown flags": badFlags,
	} {
		rows, err := decodeRows(b)
		if !errors.Is(err, errBadRows) || rows != nil {
			t.Errorf("%s: rows %v, err %v", name, rows, err)
		}
	}
}

// FuzzDecodeRows throws arbitrary bytes at the member-row decoder, the
// one parser gossip, the leave broadcast and the members op share.
// Malformed input must return errBadRows and never panic or allocate
// past its length; a decoded row always has an ID and a known state,
// re-encodes to a payload that decodes to itself, and merging it never
// puts an empty ID in a registry.
func FuzzDecodeRows(f *testing.F) {
	rows := codecTestRows()
	f.Add(appendRows(nil, rows))
	f.Add(appendRows(nil, rows[1:2]))
	f.Add(appendRows(nil, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodeRows(data)
		if err != nil {
			if !errors.Is(err, errBadRows) || rows != nil {
				t.Fatalf("untyped error or partial rows: %v, %d rows", err, len(rows))
			}
			return
		}
		if len(rows) > len(data) {
			t.Fatalf("%d rows from %d bytes", len(rows), len(data))
		}
		for _, r := range rows {
			if r.ID == "" || r.State > membership.StateLeft {
				t.Fatalf("decoded row %+v", r)
			}
		}
		again, err := decodeRows(appendRows(nil, rows))
		if err != nil || !reflect.DeepEqual(again, rows) {
			t.Fatalf("re-encoding changed the rows: %v", err)
		}
		reg, err := membership.New(membership.Config{Self: membership.Member{ID: "self", Addr: "x"}})
		if err != nil {
			t.Fatal(err)
		}
		reg.Answer(membership.Request{Rows: rows})
		for _, m := range reg.Members() {
			if m.ID == "" {
				t.Fatal("merged a row without an ID")
			}
		}
	})
}
