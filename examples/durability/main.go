// Durability: serve a dataset with a write-ahead log, acknowledge live
// appends, then "kill -9" the server — no shutdown, no final sync — and
// boot a fresh engine from what is left on disk. The walkthrough proves
// the WAL's contract end to end: every acknowledged append survives the
// crash, and the recovered engine answers byte-identically to the one
// that died. See docs/DURABILITY.md for the wire format and the operator
// runbook.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/serve"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/internal/wal"
	"templar/pkg/api"
)

func main() {
	ds := datasets.MAS()
	storeDir, err := os.MkdirTemp("", "templar-store-*")
	must(err)
	defer os.RemoveAll(storeDir)
	walDir, err := os.MkdirTemp("", "templar-wal-*")
	must(err)
	defer os.RemoveAll(walDir)

	// 1. Pack the mined snapshot once — the durable baseline the WAL
	// extends. (templar-serve does this automatically on first boot.)
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, t := range ds.Tasks {
		q, err := sqlparse.Parse(t.Gold)
		must(err)
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	graph, err := qfg.Build(entries, fragment.NoConstOp)
	must(err)
	must(store.WriteFile(filepath.Join(storeDir, store.Filename(ds.Name)), ds.Name, graph))

	// 2. Boot a durable server: engine from the snapshot, WAL attached.
	srv1, tn1 := boot(ds, storeDir, walDir)

	// 3. Acknowledged appends. Each ack carries wal_seq — the durability
	// receipt: the record was fsynced before the response was written.
	for _, body := range []string{
		`{"queries":[{"sql":"SELECT j.name FROM journal j","count":3}]}`,
		`{"session":true,"decay":0.7,"queries":[
			{"sql":"SELECT a.name FROM author a"},
			{"sql":"SELECT p.title FROM publication p"}]}`,
	} {
		resp, err := http.Post(srv1.URL+"/v2/mas/log", "application/json", bytes.NewReader([]byte(body)))
		must(err)
		var ack api.LogAppendResponse
		must(json.NewDecoder(resp.Body).Decode(&ack))
		resp.Body.Close()
		fmt.Printf("append acked: wal_seq=%d log now %d queries\n", ack.WALSeq, ack.LogQueries)
	}
	probe := `{"queries":[{"spec":"papers:select;Databases:where"}]}`
	before := translate(srv1.URL, probe)
	fmt.Printf("pre-crash answer: %d bytes\n", len(before))

	// 4. kill -9: the server vanishes mid-flight. No WAL.Close, no final
	// sync — whatever the acks promised must already be on disk.
	srv1.Close()
	_ = tn1 // the dead process's engine is never touched again

	// 5. Restart: the same boot path finds the snapshot plus a WAL tail
	// and replays it through the engine's replay path.
	srv2, tn2 := boot(ds, storeDir, walDir)
	defer srv2.Close()
	defer tn2.WAL.Close()
	st := tn2.WAL.Stats()
	fmt.Printf("recovered: %d WAL record(s) replayed, log at seq %d\n", st.RecoveredRecords, st.Seq)

	// 6. Prove identical: the recovered engine's answer is byte-for-byte
	// the pre-crash one.
	after := translate(srv2.URL, probe)
	if !bytes.Equal(before, after) {
		log.Fatalf("recovered engine diverged:\nbefore: %s\nafter:  %s", before, after)
	}
	fmt.Println("post-crash answer is byte-identical: no acknowledged append was lost")
}

// boot assembles a durable tenant the way templar-serve -store -wal does:
// load the packed snapshot, publish it as a live log, attach the WAL (which
// replays any tail past the snapshot's recorded sequence).
func boot(ds *datasets.Dataset, storeDir, walDir string) (*httptest.Server, *serve.Tenant) {
	ar, err := store.ReadFile(filepath.Join(storeDir, store.Filename(ds.Name)))
	must(err)
	sys := templar.NewLive(ds.DB, embedding.New(), qfg.NewLive(ar.Snapshot), templar.Options{LogJoin: true})
	tn := &serve.Tenant{
		Name:        ds.Name,
		Sys:         sys,
		Source:      "store",
		StorePath:   filepath.Join(storeDir, store.Filename(ds.Name)),
		SnapshotSeq: ar.WalSeq,
	}
	_, err = serve.AttachWAL(tn, walDir, wal.Options{})
	must(err)
	reg := serve.NewRegistry()
	must(reg.Add(tn))
	return httptest.NewServer(serve.NewRegistryServer(reg, ds.Name, 4, nil).Handler()), tn
}

// translate posts one batch and returns the raw response bytes.
func translate(base, body string) []byte {
	resp, err := http.Post(base+"/v2/mas/translate", "application/json", bytes.NewReader([]byte(body)))
	must(err)
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	must(err)
	return buf.Bytes()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
