// Package server implements the gridvod HTTP API: the paper's
// reputation-based VO formation mechanism as a long-lived JSON service,
// in the shape popularized by go-eigentrust's `eigentrust serve` — the
// same power-method kernel behind an HTTP endpoint with sparse
// trust-matrix inputs.
//
// Endpoints (see API.md at the repo root for full schemas and examples):
//
//	POST /v1/reputation   trust graph → global reputation vector
//	                      (eqs. 2-6, Algorithm 2) with iteration stats
//	POST /v1/vo/form      scenario → TVOF/RVOF result (Algorithm 1):
//	                      selected VO, payoffs, assignment, engine stats
//	POST /v1/assign       single coalition IP solve (eqs. 9-14)
//	GET  /healthz         liveness
//	GET  /metrics         expvar-style counters: requests, solves, cache
//	                      hit rate, B&B nodes, latency histogram
//
// Serving concerns are layered on the library's existing substrate rather
// than reimplemented: each request derives a context deadline that flows
// through mechanism.RunContext into assign.SolveCtx (expiry degrades
// solves to heuristic incumbents and the reply is 504 with partial=true);
// scenarios are mapped to mechanism.Engine instances through a bounded
// LRU keyed by content hash, so repeated identical requests turn NP-hard
// coalition solves into cache hits; every formation, sync or async, is
// admitted through one bounded job queue that coalesces identical
// requests; a semaphore bounds the other in-flight solve requests;
// request bodies are size-limited (413); and Serve drains in-flight
// requests on shutdown.
//
// The package is stdlib-only (net/http + encoding/json), matching the
// repo's no-dependency constraint.
package server
