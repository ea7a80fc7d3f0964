package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"

	"classminer/internal/access"
	"classminer/internal/trace"
)

// userKey carries the authenticated user through the request context on the
// fallback path (handlers driven directly in tests, without withTrace).
type userKeyT struct{}

var userKey userKeyT

// userOf returns the authenticated user installed by withAuth. On the
// serving path the user lives in the pooled reqState — no context value, no
// interface boxing; the context fallback keeps bare-handler tests working.
func userOf(r *http.Request) access.User {
	if rs := stateOf(r); rs != nil {
		return rs.user
	}
	u, _ := r.Context().Value(userKey).(access.User)
	return u
}

// token extracts the request's credential: "Authorization: Bearer <tok>"
// wins, then the X-Api-Token header. Empty string means unauthenticated.
func token(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
		return h // a malformed header still fails the lookup below
	}
	return r.Header.Get("X-Api-Token")
}

// withAuth maps the request token to an access.User — the paper's
// multilevel access control as middleware. Every downstream policy check
// (search filtering, scene queries, admin gates) keys off this identity,
// read back through userOf. The resolved user is written into the request's
// pooled reqState; only when the chain runs without withTrace does it fall
// back to a context value. /healthz stays open for liveness probes.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Match the route normalisation ("/healthz/" serves health too) so
		// liveness and readiness probes never need credentials in any
		// spelling.
		if p := strings.TrimSuffix(r.URL.Path, "/"); p == "/healthz" || p == "/readyz" {
			next.ServeHTTP(w, r)
			return
		}
		sp := trace.StartSpan(r.Context(), "auth")
		tok := token(r)
		var u access.User
		switch {
		case tok == "" && s.opts.Anonymous != nil:
			u = *s.opts.Anonymous
		case tok == "":
			sp.End()
			writeError(w, http.StatusUnauthorized, "credentials required (Bearer token or X-Api-Token)")
			return
		default:
			known, ok := s.opts.Tokens[tok]
			if !ok {
				sp.End()
				writeError(w, http.StatusUnauthorized, "unknown token")
				return
			}
			u = known
		}
		sp.End()
		if rs, ok := w.(*reqState); ok {
			rs.user = u
			next.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), userKey, u)))
	})
}

// requireClearance enforces a minimum clearance on an endpoint (above and
// beyond the per-result policy filtering). It writes the 403 itself and
// reports whether the request may proceed.
func (s *Server) requireClearance(w http.ResponseWriter, r *http.Request, min access.Clearance) bool {
	if u := userOf(r); u.Clearance < min {
		writeError(w, http.StatusForbidden,
			"clearance "+u.Clearance.String()+" below required "+min.String())
		return false
	}
	return true
}

// withRecovery turns a handler panic into a 500 instead of killing the
// connection (and, under http.Server, spamming the log with a stack only).
// When the handler had already written part of its response before
// panicking, writing a second status/body would corrupt what is on the
// wire, so the recovery leaves the response truncated and only notes the
// panic — on the reqState, so the trace is kept as an error, and on the
// http_panics_total counter either way.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.opts.Logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				s.metrics.countPanic()
				rs, ok := w.(*reqState)
				if ok {
					rs.err = fmt.Sprintf("panic: %v", v)
				}
				if ok && rs.wrote {
					return // mid-response: the envelope below would double-write
				}
				writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// jsonScratch pairs a reusable buffer with an encoder bound to it, so the
// response hot path allocates neither per request.
type jsonScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	s := &jsonScratch{}
	s.enc = json.NewEncoder(&s.buf)
	return s
}}

// jsonPoolMaxBuf caps what goes back in the pool: one outsized response
// (a big batch, a long listing) must not pin its buffer forever.
const jsonPoolMaxBuf = 1 << 20

// writeJSON writes v with the given status, encoding through a pooled
// buffer so the body is one Write and the encoder state is reused across
// requests.
func writeJSON(w http.ResponseWriter, status int, v any) {
	s := jsonPool.Get().(*jsonScratch)
	s.buf.Reset()
	if err := s.enc.Encode(v); err != nil {
		// v came from our own handlers; an encode failure is a programming
		// error. Fall back to a plain 500 rather than a half-written body.
		jsonPool.Put(s)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":%q}\n", "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(s.buf.Bytes())
	if s.buf.Cap() <= jsonPoolMaxBuf {
		jsonPool.Put(s)
	}
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
