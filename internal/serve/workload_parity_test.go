package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/keyword"
	"templar/internal/workload"
	"templar/pkg/api"
)

// TestV1V2ParityWorkload extends the adapter gate from hand-picked
// requests to a seeded synthesized workload mix: a deterministic
// internal/workload stream — weighted map-keywords, infer-joins, batched
// translate and log appends, exactly what cmd/templar-load replays
// against production — is sent through both route families, and for
// every request the two contracts must agree on status and answer
// bit-identically on success. Log appends target a frozen engine here,
// pinning error-path parity (409 log_frozen) under the same mix.
func TestV1V2ParityWorkload(t *testing.T) {
	const perDataset = 40
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			srv := NewServer(buildSystem(t, ds, keyword.Options{}), ds.Name, 4)
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			lower := strings.ToLower(ds.Name)

			profiles, err := workload.MineProfiles([]string{ds.Name})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewGenerator(profiles, workload.DefaultMix(), 2026)
			if err != nil {
				t.Fatal(err)
			}
			stream := gen.Generate(perDataset)
			// The stream must be reproducible here too — the parity gate is
			// only as good as its ability to replay the same slice forever.
			gen2, _ := workload.NewGenerator(profiles, workload.DefaultMix(), 2026)
			if workload.Fingerprint(stream) != workload.Fingerprint(gen2.Generate(perDataset)) {
				t.Fatal("workload slice not reproducible")
			}

			ops := map[workload.Op]int{}
			for _, req := range stream {
				ops[req.Op]++
				var endpoint string
				var v1body, v2body any
				switch req.Op {
				case workload.OpMapKeywords:
					endpoint = "map-keywords"
					v1body = V1MapKeywordsRequest{KeywordsInput: req.MapKeywords.KeywordsInput, Top: req.MapKeywords.TopK}
					v2body = req.MapKeywords
				case workload.OpInferJoins:
					endpoint = "infer-joins"
					v1body = V1InferJoinsRequest{Relations: req.InferJoins.Relations, TopK: req.InferJoins.TopK}
					v2body = req.InferJoins
				case workload.OpTranslate:
					endpoint = "translate"
					v1body, v2body = req.Translate, req.Translate
				case workload.OpLogAppend:
					endpoint = "log"
					v1body, v2body = req.LogAppend, req.LogAppend
				}
				s1, _, raw1 := postRaw(t, ts.URL+"/v1/"+lower+"/"+endpoint, v1body)
				s2, h2, raw2 := postRaw(t, ts.URL+"/v2/"+lower+"/"+endpoint, v2body)

				if req.Op == workload.OpLogAppend {
					// Frozen engine: both contracts refuse, each in its own
					// error dialect.
					if s1 != http.StatusConflict || s2 != http.StatusConflict {
						t.Fatalf("req %d: log statuses v1=%d v2=%d, want 409/409", req.Seq, s1, s2)
					}
					var legacy V1Error
					if err := json.Unmarshal(raw1, &legacy); err != nil || legacy.Error == "" {
						t.Fatalf("req %d: v1 log error body %s", req.Seq, raw1)
					}
					wantProblem(t, s2, h2, raw2, http.StatusConflict, api.CodeLogFrozen)
					continue
				}
				if s1 != s2 {
					t.Fatalf("req %d (%s): status v1=%d v2=%d\nv1: %s\nv2: %s", req.Seq, endpoint, s1, s2, raw1, raw2)
				}
				if s1 != http.StatusOK {
					continue // error bodies differ by contract (dialects pinned elsewhere)
				}
				if req.Op == workload.OpTranslate {
					// v1 carries per-item errors as strings; bodies are only
					// bit-identical when every batch item succeeded.
					var v1r V1TranslateResponse
					if err := json.Unmarshal(raw1, &v1r); err != nil {
						t.Fatalf("req %d: v1 translate body: %v", req.Seq, err)
					}
					var v2r api.TranslateResponse
					if err := json.Unmarshal(raw2, &v2r); err != nil {
						t.Fatalf("req %d: v2 translate body: %v", req.Seq, err)
					}
					if len(v1r.Results) != len(v2r.Results) {
						t.Fatalf("req %d: batch sizes v1=%d v2=%d", req.Seq, len(v1r.Results), len(v2r.Results))
					}
					clean := true
					for i := range v1r.Results {
						if (v1r.Results[i].Error != "") != (v2r.Results[i].Error != nil) {
							t.Fatalf("req %d item %d: error presence diverged", req.Seq, i)
						}
						if v1r.Results[i].SQL != v2r.Results[i].SQL || v1r.Results[i].Score != v2r.Results[i].Score ||
							v1r.Results[i].Tie != v2r.Results[i].Tie {
							t.Fatalf("req %d item %d: translation diverged\nv1: %s\nv2: %s", req.Seq, i, raw1, raw2)
						}
						if v1r.Results[i].Error != "" {
							clean = false
						}
					}
					if clean && !bytes.Equal(raw1, raw2) {
						t.Fatalf("req %d: clean translate bodies diverged\nv1: %s\nv2: %s", req.Seq, raw1, raw2)
					}
					continue
				}
				if !bytes.Equal(raw1, raw2) {
					t.Fatalf("req %d (%s): bodies diverged\nv1: %s\nv2: %s", req.Seq, endpoint, raw1, raw2)
				}
			}
			// The seeded slice must actually exercise the whole mix. Feedback
			// is exempt: the default mix opts out of it (weight 0), and it is
			// v2-only — there is no v1 route to hold parity against.
			for _, op := range []workload.Op{workload.OpMapKeywords, workload.OpInferJoins, workload.OpTranslate, workload.OpLogAppend} {
				if ops[op] == 0 {
					t.Fatalf("seeded slice never hit %s (ops: %v); grow the slice or reseed", op, ops)
				}
			}
		})
	}
}
