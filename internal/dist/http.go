package dist

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"repro/internal/sweep"
)

// Handler exposes the coordinator over HTTP. The service layer mounts
// it under /v1/dist (see service.Handler); paths here are relative to
// that prefix:
//
//	POST /workers                worker registration -> {id, lease_ttl_ms}
//	POST /sweeps                 submit a sweep.Spec for distributed
//	                             execution; 202 with progress, 200 when
//	                             an identical sweep already exists
//	GET  /sweeps                 list distributed sweeps
//	GET  /sweeps/{id}            sweep progress (pending/leased/completed)
//	GET  /sweeps/{id}/artifacts/{name}
//	                             download a completed sweep's artifact
//	POST /sweeps/{id}/points     idempotent point submission
//	POST /leases                 acquire the next shard lease (204 = no
//	                             pending work, 403 = quarantined)
//	POST /leases/{id}/renew      heartbeat (410 = lease gone)
//	POST /leases/{id}/complete   close a fully-delivered lease
//	POST /leases/{id}/fail       abandon a lease after a worker error
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /workers", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
		}
		if err := decode(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, c.RegisterWorker(req.Name))
	})

	mux.HandleFunc("POST /sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec sweep.Spec
		if err := decode(r, &spec); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		v, err := c.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		status := http.StatusAccepted
		if v.State != SweepRunning {
			status = http.StatusOK
		}
		writeJSON(w, status, v)
	})

	mux.HandleFunc("GET /sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Sweeps []SweepView `json:"sweeps"`
		}{c.Sweeps()})
	})

	mux.HandleFunc("GET /sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := c.Sweep(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown sweep")
			return
		}
		writeJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("GET /sweeps/{id}/artifacts/{name}", func(w http.ResponseWriter, r *http.Request) {
		id, name := r.PathValue("id"), r.PathValue("name")
		v, ok := c.Sweep(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown sweep")
			return
		}
		data, ct, ok := c.Artifact(id, name)
		if !ok {
			if v.State == SweepRunning {
				httpError(w, http.StatusConflict, "sweep still running")
				return
			}
			httpError(w, http.StatusNotFound, "unknown artifact (want one of "+strings.Join(v.Artifacts, ", ")+")")
			return
		}
		w.Header().Set("Content-Type", ct)
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})

	mux.HandleFunc("POST /sweeps/{id}/points", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string            `json:"worker_id"`
			Result   sweep.PointResult `json:"result"`
		}
		if err := decode(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		dup, err := c.SubmitPoint(r.PathValue("id"), req.WorkerID, req.Result)
		switch {
		case errors.Is(err, ErrUnknownSweep):
			httpError(w, http.StatusNotFound, err.Error())
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Duplicate bool `json:"duplicate"`
		}{dup})
	})

	mux.HandleFunc("POST /leases", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string `json:"worker_id"`
		}
		if err := decode(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		l, err := c.Acquire(req.WorkerID)
		switch {
		case errors.Is(err, ErrUnknownWorker):
			httpError(w, http.StatusNotFound, err.Error())
			return
		case errors.Is(err, ErrQuarantined):
			httpError(w, http.StatusForbidden, err.Error())
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		case l == nil:
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, l)
	})

	leaseOp := func(op func(leaseID, workerID string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				WorkerID string `json:"worker_id"`
				Error    string `json:"error,omitempty"`
			}
			if err := decode(r, &req); err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
			err := op(r.PathValue("id"), req.WorkerID)
			if errors.Is(err, ErrLeaseGone) {
				httpError(w, http.StatusGone, err.Error())
				return
			}
			if err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, struct {
				OK bool `json:"ok"`
			}{true})
		}
	}
	mux.HandleFunc("POST /leases/{id}/renew", leaseOp(c.Renew))
	mux.HandleFunc("POST /leases/{id}/complete", leaseOp(c.Complete))
	mux.HandleFunc("POST /leases/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string `json:"worker_id"`
			Error    string `json:"error,omitempty"`
		}
		if err := decode(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		err := c.Fail(r.PathValue("id"), req.WorkerID, req.Error)
		if errors.Is(err, ErrLeaseGone) {
			httpError(w, http.StatusGone, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, struct {
			OK bool `json:"ok"`
		}{true})
	})

	return mux
}

// decode parses a JSON request body strictly.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errors.New("bad request body: " + err.Error())
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}
