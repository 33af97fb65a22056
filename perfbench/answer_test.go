package main

import (
	"encoding/json"
	"testing"

	"apex"
)

func TestDigestIsOrderAndContentSensitive(t *testing.T) {
	a := digestIDs([]int32{1, 2, 3})
	if a != digestIDs([]int32{1, 2, 3}) {
		t.Fatal("digest not deterministic")
	}
	for _, other := range [][]int32{{1, 3, 2}, {1, 2}, {1, 2, 4}, {}} {
		if digestIDs(other) == a {
			t.Errorf("digest of %v equals digest of [1 2 3]", other)
		}
	}
	res := &apex.Result{Nodes: []apex.Node{{ID: 1, Tag: "a"}, {ID: 2, Tag: "b"}, {ID: 3, Tag: "c"}}}
	if got := answerOf(res); got.Count != 3 || got.Digest != a {
		t.Fatalf("answerOf = %+v", got)
	}
}

func TestBodyChecks(t *testing.T) {
	body, err := json.Marshal(map[string]any{
		"query": `//a/b[text()="count"]`, "generation": 3, "cached": true, "count": 3,
		"wall_ns": 1234, "nodes": []map[string]any{{"id": 1, "tag": "a"}, {"id": 2, "tag": "b"}, {"id": 3, "tag": "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := bodyCount(body); !ok || n != 3 {
		t.Fatalf("bodyCount = %d, %v", n, ok)
	}
	got, err := bodyAnswer(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := (answer{Count: 3, Digest: digestIDs([]int32{1, 2, 3})}); got != want {
		t.Fatalf("bodyAnswer = %+v, want %+v", got, want)
	}
	if _, ok := bodyCount([]byte(`{"error":"x"}`)); ok {
		t.Fatal("bodyCount found a count in an error body")
	}
	if _, err := bodyAnswer([]byte(`{"count":2,"nodes":[{"id":1}]}`)); err == nil {
		t.Fatal("bodyAnswer accepted a count that disagrees with the nodes")
	}
}
