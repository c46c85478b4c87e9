package main

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"cosmo/internal/cluster"
)

// TestParseNodesNamesByTrimmedBase: a node is named by the base its
// backend dials, so one URL spelled with and without a trailing slash
// is one name, and the router refuses to ring-place it twice.
func TestParseNodesNamesByTrimmedBase(t *testing.T) {
	client := &http.Client{}
	specs, backends, err := parseNodes(" http://h:8080, ,http://h:8081//,http://h:8082/prefix/ ", client)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	if want := []string{"http://h:8080", "http://h:8081", "http://h:8082/prefix"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("names %q, want %q", names, want)
	}
	if len(backends) != len(specs) {
		t.Fatalf("%d backends for %d nodes", len(backends), len(specs))
	}
	if _, err := cluster.New(specs, cluster.Config{}); err != nil {
		t.Fatalf("distinct nodes refused: %v", err)
	}

	for _, list := range []string{
		"http://h:8080,http://h:8080/",
		"http://h:8080/,http://h:8080",
		"http://h:8080/,http://h:8081, http://h:8080//",
	} {
		specs, _, err := parseNodes(list, client)
		if err != nil {
			t.Fatalf("%q: %v", list, err)
		}
		_, err = cluster.New(specs, cluster.Config{})
		if err == nil || !strings.Contains(err.Error(), "duplicate node name") {
			t.Errorf("%q: one process placed on the ring twice (err %v)", list, err)
		}
	}
}

func TestParseNodesRejects(t *testing.T) {
	for _, list := range []string{"", " , ", "/", "https://h:8443", "h:8080"} {
		if specs, _, err := parseNodes(list, nil); err == nil {
			t.Errorf("%q: accepted as %+v", list, specs)
		}
	}
}
