package serving

import (
	"net/url"
	"testing"
)

// queryParamSeeds cover what the scanner must agree with url.ParseQuery
// on: plus and percent escapes (in keys too), repeated keys, empty
// values and keys, semicolons, bad escapes before and after a good
// segment, and keys that are prefixes of one another.
var queryParamSeeds = []string{
	"",
	"q=camping",
	"q=winter+camping&k=10",
	"id=p%3AP000001&k=10",
	"k=3&id=p:A&id=p:B",
	"id=&id=second",
	"id",
	"=v&id=x",
	"%69d=escaped-key",
	"id=a;b&id=c",
	"id=a&x;y=1",
	"id=%zz&id=ok",
	"%zz=1&id=ok",
	"id=%4",
	"idx=1&id=2&i=3",
	"&&id=1&&",
	"id=a=b",
	"k=%31%30",
}

func wantQueryParam(raw, name string) string {
	vals, _ := url.ParseQuery(raw) // keeps every well-formed segment, as r.URL.Query() does
	return vals.Get(name)
}

func TestQueryParam(t *testing.T) {
	for _, raw := range queryParamSeeds {
		for _, name := range []string{"q", "id", "k", "i", ""} {
			if got, want := QueryParam(raw, name), wantQueryParam(raw, name); got != want {
				t.Errorf("QueryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, name, got, want)
			}
		}
	}
	raw := "id=p:P000001&k=10"
	var sink int
	if allocs := testing.AllocsPerRun(100, func() {
		sink += len(QueryParam(raw, "id")) + len(QueryParam(raw, "k"))
	}); allocs != 0 {
		t.Errorf("QueryParam allocates %v times on an unescaped query, want 0", allocs)
	}
	_ = sink
}

// FuzzQueryParam holds the scanner to url.ParseQuery(raw).Get(name) on
// every input, including the ones ParseQuery reports an error for (it
// still returns the segments that parsed, which is what the handlers
// saw through r.URL.Query()).
func FuzzQueryParam(f *testing.F) {
	for _, raw := range queryParamSeeds {
		f.Add(raw, "id")
		f.Add(raw, "q")
	}
	f.Fuzz(func(t *testing.T, raw, name string) {
		if got, want := QueryParam(raw, name), wantQueryParam(raw, name); got != want {
			t.Fatalf("QueryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, name, got, want)
		}
	})
}
