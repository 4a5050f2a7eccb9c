package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxBodyBytes bounds request bodies; seed lists are the only unbounded
// field and a million seeds still fit comfortably. Update batches are
// additionally bounded by op count (maxUpdateOps).
const maxBodyBytes = 8 << 20

// Handler returns the daemon's HTTP mux:
//
//	POST /v1/select-seeds             SelectSeedsRequest → SelectSeedsResponse
//	POST /v1/evaluate                 EvaluateRequest    → EvaluateResponse
//	POST /v1/wins                     EvaluateRequest    → WinsResponse
//	POST /v1/min-seeds-to-win         MinSeedsRequest    → MinSeedsResponse
//	POST /v1/datasets/{name}/updates  UpdateRequest body → UpdateResponse
//	GET  /v1/datasets                 → {"datasets": [names]}
//	GET  /healthz                     → 200 "ok" once the service is up
//	GET  /stats                       → Stats
//	GET  /metrics                     → Prometheus text exposition
//	GET  /debug/slow-queries          → retained slow queries, slowest first
//	GET  /debug/timeseries?window=10m → ring-TSDB samples, oldest first
//
// Errors are returned as {"error": {"code", "message"}} with the status
// implied by the code (bad_request → 400, not_found → 404,
// deadline_exceeded → 504, canceled → 499, overloaded → 429 with a
// Retry-After header, else 500). Every query handler threads the request
// context into the service, so a client disconnect or an expired deadline
// cancels the query at its next cooperative poll. The whole mux is wrapped
// in panic recovery: a crashing handler becomes a 500 plus an
// ovmd_panics_total increment, never a dead daemon.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/select-seeds", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(s, w, r, func(req *SelectSeedsRequest) (*SelectSeedsResponse, *Error) {
			return s.SelectSeedsCtx(r.Context(), req)
		})
	})
	mux.HandleFunc("/v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(s, w, r, func(req *EvaluateRequest) (*EvaluateResponse, *Error) {
			return s.EvaluateCtx(r.Context(), req)
		})
	})
	mux.HandleFunc("/v1/wins", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(s, w, r, func(req *EvaluateRequest) (*WinsResponse, *Error) {
			return s.WinsCtx(r.Context(), req)
		})
	})
	mux.HandleFunc("/v1/min-seeds-to-win", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(s, w, r, func(req *MinSeedsRequest) (*MinSeedsResponse, *Error) {
			return s.MinSeedsToWinCtx(r.Context(), req)
		})
	})
	mux.HandleFunc("POST /v1/datasets/{name}/updates", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		handleQuery(s, w, r, func(req *UpdateRequest) (*UpdateResponse, *Error) {
			req.Dataset = name // the path segment is authoritative
			return s.EnqueueUpdates(req)
		})
	})
	mux.HandleFunc("/v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			s.writeError(w, &Error{Code: CodeBadRequest, Message: "use GET"}, http.StatusMethodNotAllowed)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"datasets": s.Datasets()})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			s.writeError(w, &Error{Code: CodeBadRequest, Message: "use GET"}, http.StatusMethodNotAllowed)
			return
		}
		s.writeJSON(w, http.StatusOK, s.StatsSnapshot())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			s.tel.logger.Warn("metrics write failed", "err", err)
		}
	})
	mux.HandleFunc("GET /debug/slow-queries", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]any{
			"thresholdNs": s.tel.slow.Threshold().Nanoseconds(),
			"entries":     s.SlowQueries(),
		})
	})
	mux.HandleFunc("GET /debug/timeseries", func(w http.ResponseWriter, r *http.Request) {
		window := time.Duration(0) // zero = everything retained
		if q := r.URL.Query().Get("window"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d < 0 {
				s.writeError(w, badRequestf("invalid window %q (want a non-negative Go duration like 10m)", q), 0)
				return
			}
			window = d
		}
		pts := s.tsdb.Window(window, time.Now())
		s.writeJSON(w, http.StatusOK, map[string]any{"points": pts})
	})
	if s.cfg.DebugFaults {
		// Deliberately crashes the handler goroutine so smoke tests can
		// prove the recovery middleware turns a panic into a 500 without
		// killing the daemon. Gated behind Config.DebugFaults.
		mux.HandleFunc("POST /debug/fault/panic", func(w http.ResponseWriter, r *http.Request) {
			panic("injected fault: /debug/fault/panic")
		})
	}
	return s.recoverPanics(mux)
}

// recoverPanics converts a panicking handler into a 500 response and an
// ovmd_panics_total increment, keeping the daemon alive. http.ErrAbortHandler
// is re-panicked: it is net/http's own sentinel for deliberately aborting a
// response and must keep its semantics.
func (s *Service) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(rec)
			}
			s.panics.Add(1)
			s.tel.logger.Error("handler panic recovered", "path", r.URL.Path, "panic", fmt.Sprint(rec))
			// Best effort: if the handler already wrote headers this is a
			// no-op beyond the log line.
			s.writeError(w, &Error{Code: CodeInternal, Message: fmt.Sprintf("internal panic: %v", rec)}, 0)
		}()
		next.ServeHTTP(w, r)
	})
}

// handleQuery decodes a JSON body into Req, dispatches, and encodes the
// response or the typed error. The body is hard-bounded by MaxBytesReader,
// so an oversized request fails with 413 instead of being truncated.
func handleQuery[Req any, Resp any](s *Service, w http.ResponseWriter, r *http.Request, fn func(*Req) (Resp, *Error)) {
	if r.Method != http.MethodPost {
		s.writeError(w, &Error{Code: CodeBadRequest, Message: "use POST with a JSON body"}, http.StatusMethodNotAllowed)
		return
	}
	var req Req
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, badRequestf("request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		s.writeError(w, badRequestf("invalid JSON body: %v", err), 0)
		return
	}
	resp, serr := fn(&req)
	if serr != nil {
		s.writeError(w, serr, 0)
		return
	}
	// The request span ends when the service call returns; serialization
	// happens after it, so it is timed straight into the stage histogram.
	ser := time.Now()
	s.writeJSON(w, http.StatusOK, resp)
	s.tel.stageHist.With("serialize").Observe(time.Since(ser))
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response was ready. There is no standard status for it
// and 499 is what fleet dashboards already understand.
const statusClientClosedRequest = 499

// writeError emits the error envelope; status 0 derives the status from
// the error code. Overloaded errors carry a Retry-After header.
func (s *Service) writeError(w http.ResponseWriter, e *Error, status int) {
	if status == 0 {
		switch e.Code {
		case CodeBadRequest:
			status = http.StatusBadRequest
		case CodeNotFound:
			status = http.StatusNotFound
		case CodeDeadlineExceeded:
			status = http.StatusGatewayTimeout
		case CodeCanceled:
			status = statusClientClosedRequest
		case CodeOverloaded:
			status = http.StatusTooManyRequests
		default:
			status = http.StatusInternalServerError
		}
	}
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	s.writeJSON(w, status, map[string]any{
		"error": map[string]string{"code": string(e.Code), "message": e.Message},
	})
}

func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are already written; log and move on.
		s.tel.logger.Warn("response encode failed", "err", err)
	}
}
