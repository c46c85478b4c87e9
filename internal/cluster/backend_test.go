package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cosmo/internal/serving"
)

// TestReadinessAgreesAcrossTransports walks a node through every
// readiness state and holds the three views of it to one answer: the
// node's own /readyz, LocalBackend.Check, and HTTPBackend.Check probing
// that /readyz over a socket.
func TestReadinessAgreesAcrossTransports(t *testing.T) {
	cases := []struct {
		name                    string
		ready, drain, breakOpen bool
		status                  int
		body                    string
		health                  Health
	}{
		{name: "warming", status: http.StatusServiceUnavailable, body: "warming up\n", health: HealthDown},
		{name: "ready", ready: true, status: http.StatusOK, body: "ready", health: HealthReady},
		{name: "draining", ready: true, drain: true, status: http.StatusServiceUnavailable, body: "draining\n", health: HealthDraining},
		{name: "breaker open", ready: true, breakOpen: true, status: http.StatusServiceUnavailable, body: "circuit breaker open\n", health: HealthDown},
		{name: "draining + breaker open", ready: true, drain: true, breakOpen: true, status: http.StatusServiceUnavailable, body: "draining\n", health: HealthDraining},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			model := serving.NewResilient(serving.ContextResponderFunc(func(context.Context, string) (serving.Feature, error) {
				return serving.Feature{}, errors.New("down")
			}), serving.ResilienceConfig{MaxRetries: -1, Breaker: serving.BreakerConfig{Threshold: 1, Cooldown: time.Hour}})
			if c.breakOpen {
				if _, err := model.RespondContext(context.Background(), "q"); err == nil {
					t.Fatal("failing model answered")
				}
			}
			dep := serving.NewDeploymentContext(serving.DeployConfig{}, model)
			dep.SetReady(c.ready)
			if c.drain {
				dep.BeginDrain()
			}
			srv := httptest.NewServer(serving.NewHTTPHandler(dep))
			defer srv.Close()

			resp, err := http.Get(srv.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status || string(body) != c.body {
				t.Errorf("/readyz = %d %q, want %d %q", resp.StatusCode, body, c.status, c.body)
			}
			if h := NewLocalBackend(dep).Check(context.Background()); h != c.health {
				t.Errorf("LocalBackend.Check = %v, want %v", h, c.health)
			}
			hb := NewHTTPBackend(srv.URL, nil)
			defer hb.Close()
			if h := hb.Check(context.Background()); h != c.health {
				t.Errorf("HTTPBackend.Check = %v, want %v", h, c.health)
			}
		})
	}
}

// TestHTTPBackendCheckRefusesUnusableBase: a node behind an https://
// base answers /readyz, but every Do fails on the scheme, so Check must
// report it down and a router over it must count no eligible node.
func TestHTTPBackendCheckRefusesUnusableBase(t *testing.T) {
	dep := serving.NewDeploymentContext(serving.DeployConfig{}, serving.ContextResponderFunc(func(_ context.Context, q string) (serving.Feature, error) {
		return serving.Feature{Query: q}, nil
	}))
	dep.SetReady(true)
	srv := httptest.NewTLSServer(serving.NewHTTPHandler(dep))
	defer srv.Close()
	hb := NewHTTPBackend(srv.URL, srv.Client())
	defer hb.Close()
	if _, err := hb.Do(context.Background(), "/intent", "q=tent"); err == nil {
		t.Fatal("Do over an https:// base succeeded")
	}
	if h := hb.Check(context.Background()); h != HealthDown {
		t.Errorf("Check = %v, want %v", h, HealthDown)
	}
	r, err := New([]NodeSpec{{Name: "tls", Backend: hb}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r.CheckHealth(context.Background())
	if n := r.EligibleNodes(); n != 0 {
		t.Errorf("EligibleNodes = %d, want 0", n)
	}
}
