package serving

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestDeploymentDrainLifecycle(t *testing.T) {
	dep := NewDeploymentContext(DeployConfig{DailyCacheCap: 16}, echoResponder("v1"))
	dep.Cache.ReplaceYearly([]Feature{{Query: "camping", Intents: []string{"i"}, Version: 1, CreatedAt: time.Unix(1_700_000_000, 0)}})
	dep.SetReady(true)
	h := NewHTTPHandler(dep)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if dep.Draining() {
		t.Fatal("fresh deployment reports draining")
	}
	if rec := get("/metrics"); !strings.Contains(rec.Body.String(), "cosmo_draining 0") {
		t.Fatalf("/metrics before drain missing cosmo_draining 0:\n%s", rec.Body.String())
	}

	dep.BeginDrain()
	if dep.Ready() {
		t.Fatal("BeginDrain left the deployment ready")
	}
	if !dep.Draining() {
		t.Fatal("BeginDrain did not mark draining")
	}
	// The drain protocol's router-visible half: /readyz says 503 with a
	// "draining" body (so routers classify drain, not death), /metrics
	// exports the gauge, and the query path still answers.
	rec := get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("/readyz body %q does not announce the drain", rec.Body.String())
	}
	if rec := get("/metrics"); !strings.Contains(rec.Body.String(), "cosmo_draining 1") {
		t.Fatalf("/metrics while draining missing cosmo_draining 1:\n%s", rec.Body.String())
	}
	if rec := get("/intent?q=camping"); rec.Code != http.StatusOK {
		t.Fatalf("/intent while draining = %d, want 200 (in-flight traffic keeps serving)", rec.Code)
	}

	// BeginDrain is idempotent.
	dep.BeginDrain()
	if !dep.Draining() || dep.Ready() {
		t.Fatal("second BeginDrain changed the drain state")
	}
}
