package ingest

import (
	"encoding/json"
	"errors"
	"net/http"

	"marketscope/internal/analysis"
)

// IngestPath is the route the handler is conventionally mounted at (via
// market.(*Server).AttachPost or any mux).
const IngestPath = "/api/ingest"

// maxDeltaBytes bounds a POSTed delta body: batches carry base64 APKs, so the
// ceiling is generous, but a producer cannot make the server buffer
// arbitrarily much.
const maxDeltaBytes = 64 << 20

// CursorState is the GET response: where the feed is and how much has landed.
type CursorState struct {
	Cursor   uint64 `json:"cursor"`
	Listings int    `json:"listings"`
}

// ingestError is the JSON error envelope; Cursor tells a desynchronized
// producer where to resume.
type ingestError struct {
	Error  string `json:"error"`
	Cursor uint64 `json:"cursor"`
}

// Applier is what the HTTP handler needs from an ingest backend. *Ingestor
// implements it directly; the durable store wraps one, adding write-ahead
// logging and snapshot cadence around the same contract.
type Applier interface {
	Apply(Delta) (Result, error)
	Cursor() uint64
	Dataset() *analysis.Dataset
}

// Handler serves the delta feed over HTTP: GET returns the CursorState, POST
// applies one Delta and returns its Result. A cursor gap answers 409 with the
// expected cursor so the producer can resync without a second round trip; a
// commit failure answers 503, since the delta was fine and the server was
// not; any other rejection is the delta's fault and answers 400.
func Handler(ing Applier) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			listings := 0
			if ds := ing.Dataset(); ds != nil {
				listings = ds.NumListings()
			}
			writeJSON(w, http.StatusOK, CursorState{Cursor: ing.Cursor(), Listings: listings})
		case http.MethodPost:
			var d Delta
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDeltaBytes))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&d); err != nil {
				writeJSON(w, http.StatusBadRequest, ingestError{Error: "bad delta: " + err.Error(), Cursor: ing.Cursor()})
				return
			}
			res, err := ing.Apply(d)
			if err != nil {
				status := http.StatusBadRequest
				switch {
				case errors.Is(err, ErrCursorGap):
					status = http.StatusConflict
				case errors.Is(err, ErrCommit):
					status = http.StatusServiceUnavailable
				}
				writeJSON(w, status, ingestError{Error: err.Error(), Cursor: res.Cursor})
				return
			}
			writeJSON(w, http.StatusOK, res)
		default:
			w.Header().Set("Allow", "GET, POST")
			writeJSON(w, http.StatusMethodNotAllowed, ingestError{Error: "method not allowed", Cursor: ing.Cursor()})
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
