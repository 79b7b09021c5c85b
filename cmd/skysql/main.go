// Command skysql is a small SQL shell over the engine. It loads CSV files
// as tables and executes queries — including SKYLINE OF queries — either
// from the command line or interactively.
//
// Usage:
//
//	skysql -table hotels=hotels.csv:int,float,int -q "SELECT * FROM hotels SKYLINE OF price MIN, rating MAX"
//	skysql -table hotels=hotels.csv:int,float,int        # interactive shell
//
// The -table flag may be repeated. Column kinds are int, float, string,
// bool, given in CSV header order. Shell commands: \q quits, \t lists
// tables, \e <sql> explains a query, \s <sql> executes it and prints the
// per-stage makespan breakdown.
//
// Full manual: docs/skysql.md. For serving queries over HTTP instead of
// a shell, see cmd/skysqld (docs/skysqld.md).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"skysql"
)

type tableFlag []string

func (t *tableFlag) String() string     { return strings.Join(*t, ",") }
func (t *tableFlag) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var (
		tables     tableFlag
		query      = flag.String("q", "", "query to execute (omit for interactive shell)")
		executors  = flag.Int("executors", 4, "executor count")
		explain    = flag.Bool("explain", false, "print plans instead of executing")
		showStages = flag.Bool("stages", false, "print the run's metrics (counters, stage makespans, cost decisions) after each query")
		cacheBytes = flag.Int64("cache", 0, "skyline result-cache budget in bytes (0 = off, negative = default budget)")
	)
	flag.Var(&tables, "table", "name=file.csv:kind,kind,... (repeatable)")
	flag.Parse()

	opts := []skysql.Option{skysql.WithExecutors(*executors)}
	if *cacheBytes != 0 {
		opts = append(opts, skysql.WithResultCache(*cacheBytes))
	}
	sess := skysql.NewSession(opts...)
	for _, spec := range tables {
		if err := loadTable(sess, spec); err != nil {
			fmt.Fprintln(os.Stderr, "skysql:", err)
			os.Exit(1)
		}
	}

	if *query != "" {
		if err := execute(sess, *query, *explain, *showStages); err != nil {
			fmt.Fprintln(os.Stderr, "skysql:", err)
			os.Exit(1)
		}
		return
	}
	shell(sess, *showStages)
}

func loadTable(sess *skysql.Session, spec string) error {
	eq := strings.IndexByte(spec, '=')
	colon := strings.LastIndexByte(spec, ':')
	if eq < 0 || colon < eq {
		return fmt.Errorf("invalid -table %q; want name=file.csv:kind,...", spec)
	}
	name, path, kindList := spec[:eq], spec[eq+1:colon], spec[colon+1:]
	var kinds []skysql.Kind
	for _, k := range strings.Split(kindList, ",") {
		switch strings.TrimSpace(k) {
		case "int":
			kinds = append(kinds, skysql.KindInt)
		case "float":
			kinds = append(kinds, skysql.KindFloat)
		case "string":
			kinds = append(kinds, skysql.KindString)
		case "bool":
			kinds = append(kinds, skysql.KindBool)
		default:
			return fmt.Errorf("unknown column kind %q", k)
		}
	}
	return sess.LoadCSV(name, path, kinds)
}

// execute runs (or explains) one query; showStages additionally prints the
// run's metrics (Metrics.Format).
func execute(sess *skysql.Session, query string, explain, showStages bool) error {
	if explain {
		out, err := sess.Explain(query)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	df, err := sess.SQL(query)
	if err != nil {
		return err
	}
	start := time.Now()
	rows, err := df.Collect()
	if err != nil {
		return err
	}
	schema, err := df.Schema()
	if err != nil {
		return err
	}
	fmt.Print(skysql.FormatRows(schema, rows))
	fmt.Printf("(%d rows in %s)\n", len(rows), time.Since(start).Round(time.Millisecond))
	if showStages {
		fmt.Print(df.Metrics().Format())
	}
	return nil
}

func shell(sess *skysql.Session, showStages bool) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("skysql shell — \\q to quit, \\t for tables, \\e <sql> to explain, \\s <sql> for run metrics")
	for {
		fmt.Print("skysql> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q`:
			return
		case line == `\t`:
			for _, t := range sess.Tables() {
				fmt.Println(t)
			}
		case strings.HasPrefix(line, `\e `):
			if err := execute(sess, strings.TrimPrefix(line, `\e `), true, showStages); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		case strings.HasPrefix(line, `\s `):
			if err := execute(sess, strings.TrimPrefix(line, `\s `), false, true); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		default:
			if err := execute(sess, line, false, showStages); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
	}
}
