package main

import (
	"net/http"
	"net/http/httptest"

	"dlrmperf"
	"dlrmperf/internal/client"
	"dlrmperf/internal/serve"
)

// worker is one in-process prediction worker behind a loopback HTTP
// server: an engine warm-started from asset bytes, the serving layer
// over it, and an httptest server over the serving layer's handler.
type worker struct {
	eng  *dlrmperf.Engine
	srv  *serve.Server
	http *httptest.Server
}

// startWorker builds a worker from cfg and the asset payloads. With a
// recorder, the worker records "serve.handler" spans around the HTTP
// handler and "engine.predict" spans around every engine call.
func startWorker(cfg dlrmperf.EngineConfig, assets [][]byte, rec *recorder) (*worker, error) {
	eng, err := dlrmperf.NewEngineWith(cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range assets {
		if err := eng.LoadAssets(a); err != nil {
			return nil, err
		}
	}
	var be serve.Backend = eng
	if rec != nil {
		be = tracedBackend{eng}
	}
	srv := serve.New(serve.Config{Backend: be})
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = traceHandler(rec, "serve.handler", h)
	}
	return &worker{eng: eng, srv: srv, http: httptest.NewServer(h)}, nil
}

// close stops the HTTP server (waiting for in-flight handlers) and then
// drains the serving layer's workers.
func (w *worker) close() {
	w.http.Close()
	w.srv.Drain()
}

// newClient returns a typed client for base whose transport keeps
// conns idle connections and propagates spans.
func newClient(base string, conns int) *client.Client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: tracingTransport{base: tr}}))
}
