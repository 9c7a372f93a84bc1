package legodb

import (
	"strings"
	"testing"
)

// Regression tests for typed parameters: a parameter converts to the
// catalog type of the column it is compared with, not by whether the
// value happens to look like an integer: Params{"c1": "007"} matches the
// string "007" in a string column and the integer 7 in an INT column.

const paramXML = `<imdb>
  <show type="Movie">
    <title>007</title><year>1962</year>
    <box_office>59600000</box_office><video_sales>100</video_sales>
  </show>
  <show type="Movie">
    <title>99999999999999999999999999</title><year>2001</year>
    <box_office>1</box_office><video_sales>2</video_sales>
  </show>
</imdb>`

func paramStore(t *testing.T) *Store {
	t.Helper()
	e := newEngine(t)
	if err := e.AddQuery("bytitle", `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year`, 1); err != nil {
		t.Fatal(err)
	}
	advice, err := e.Advise(AdviseOptions{Strategy: GreedySI, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	store, err := advice.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.LoadXML(strings.NewReader(paramXML)); err != nil {
		t.Fatal(err)
	}
	return store
}

func TestParamLeadingZeroMatchesStringColumn(t *testing.T) {
	store := paramStore(t)
	res, err := store.Query(`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year`,
		Params{"c1": "007"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "1962" {
		t.Fatalf("title '007' returned %v, want the 1962 show (leading zeros must survive binding)", res.Rows)
	}
}

func TestParamOverflowDigitsMatchStringColumn(t *testing.T) {
	store := paramStore(t)
	res, err := store.Query(`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year`,
		Params{"c1": "99999999999999999999999999"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "2001" {
		t.Fatalf("overlong digit title returned %v, want the 2001 show", res.Rows)
	}
}

func TestParamOverflowDigitsOnIntColumnMatchNothing(t *testing.T) {
	// A value no INT column can store must execute cleanly and return
	// zero rows, not error or mis-bind.
	store := paramStore(t)
	res, err := store.Query(`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`,
		Params{"c1": "99999999999999999999999999"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("overflow-length literal on an INT column matched %v", res.Rows)
	}
}

func TestParamIntColumnStillBindsInteger(t *testing.T) {
	store := paramStore(t)
	res, err := store.Query(`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`,
		Params{"c1": "1962"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "007" {
		t.Fatalf("year 1962 returned %v", res.Rows)
	}
}

func TestDeleteWhereBindsByColumnType(t *testing.T) {
	// The mutation path shares the typed binding: deleting by a
	// leading-zero title must find its target.
	store := paramStore(t)
	n, err := store.DeleteWhere(`FOR $s IN imdb/show WHERE $s/title = c1 RETURN $s`,
		Params{"c1": "007"})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("DeleteWhere with a leading-zero string parameter removed nothing")
	}
	res, err := store.Query(`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year`,
		Params{"c1": "007"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("deleted show still answers: %v", res.Rows)
	}
}
