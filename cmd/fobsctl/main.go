// Command fobsctl is the operator CLI for a running fobsd daemon: it
// wraps the daemon's local HTTP API (submit, list, get, cancel, and the
// per-task event timeline) so day-to-day operation does not require
// hand-written curl bodies.
//
// Usage:
//
//	fobsctl submit -addr recv:7700 -path /data/obj [-tenant web] [-cc aimd] [-wait]
//	fobsctl list
//	fobsctl get 3
//	fobsctl events 3
//	fobsctl cancel 3
//
// The daemon address comes from -api (default http://127.0.0.1:7780).
// -json switches any subcommand to raw API JSON for scripting.
//
// Exit status: 0 on success; 1 on usage or transport errors; 2 when
// -wait saw the task end failed or cancelled.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/hpcnet/fobs"
)

func main() {
	os.Exit(run())
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fobsctl [-api URL] [-json] <command> [flags]

commands:
  submit   submit a transfer task (-addr, -path, -tenant, -packet-size,
           -streams, -cc, -no-dedup, -wait)
  list     list every task the daemon knows
  get      show one task by id
  events   show one task's durable timeline
  cancel   cancel a task by id`)
}

func run() int {
	api := flag.String("api", "http://127.0.0.1:7780", "fobsd API base URL")
	rawJSON := flag.Bool("json", false, "print raw API JSON instead of tables")
	flag.Usage = func() { usage(); flag.PrintDefaults() }
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		return 1
	}
	c := &client{base: strings.TrimRight(*api, "/"), raw: *rawJSON}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	code := 0
	switch cmd {
	case "submit":
		code, err = c.submit(args)
	case "list":
		err = c.list()
	case "get":
		err = c.taskByID(args, "")
	case "events":
		err = c.taskByID(args, "/events")
	case "cancel":
		err = c.cancel(args)
	default:
		flag.Usage()
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fobsctl: %v\n", err)
		return 1
	}
	return code
}

type client struct {
	base string
	raw  bool
}

// do performs one API call and decodes the JSON answer into out (or
// prints it raw under -json, leaving out untouched).
func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		js, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(js)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s (%s)", apiErr.Error, resp.Status)
		}
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if c.raw {
		os.Stdout.Write(data)
		if len(data) > 0 && data[len(data)-1] != '\n' {
			fmt.Println()
		}
		return nil
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *client) submit(args []string) (int, error) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "receiving endpoint control address (required)")
		path    = fs.String("path", "", "local file to transfer (required, as seen by the daemon)")
		tenant  = fs.String("tenant", "", "tenant for fairness and rate capping")
		pktSize = fs.Int("packet-size", 0, "payload bytes per datagram (0: runtime default)")
		streams = fs.Int("streams", 0, "stripe across this many UDP flows (0/1: unstriped)")
		cc      = fs.String("cc", "", "congestion control policy for this task ("+strings.Join(fobs.CongestionPolicies(), ", ")+")")
		noDedup = fs.Bool("no-dedup", false,
			"do not let the receiver answer from an object it already holds whole; always move the bytes")
		wait = fs.Bool("wait", false, "poll until the task reaches a terminal state")
	)
	fs.Parse(args)
	if *addr == "" || *path == "" {
		return 1, fmt.Errorf("submit needs -addr and -path")
	}
	spec := fobs.TaskSpec{
		Tenant:     *tenant,
		Addr:       *addr,
		Path:       *path,
		PacketSize: *pktSize,
		Streams:    *streams,
		Congestion: *cc,
		NoDedup:    *noDedup,
	}
	var task fobs.Task
	if err := c.do(http.MethodPost, "/tasks", spec, &task); err != nil {
		return 1, err
	}
	if c.raw && !*wait {
		return 0, nil
	}
	if !c.raw {
		printTasks(task)
	}
	if !*wait {
		return 0, nil
	}
	for !task.State.Terminal() {
		time.Sleep(250 * time.Millisecond)
		if err := c.do(http.MethodGet, fmt.Sprintf("/tasks/%d", task.ID), nil, &task); err != nil {
			return 1, err
		}
	}
	if !c.raw {
		printTasks(task)
	}
	if task.State != fobs.TaskDone {
		return 2, nil
	}
	return 0, nil
}

func (c *client) list() error {
	var list []fobs.Task
	if err := c.do(http.MethodGet, "/tasks", nil, &list); err != nil {
		return err
	}
	if !c.raw {
		printTasks(list...)
	}
	return nil
}

// taskByID serves both `get` (suffix "") and `events` (suffix "/events").
func (c *client) taskByID(args []string, suffix string) error {
	id, err := argID(args)
	if err != nil {
		return err
	}
	if suffix == "" {
		var task fobs.Task
		if err := c.do(http.MethodGet, fmt.Sprintf("/tasks/%d", id), nil, &task); err != nil {
			return err
		}
		if !c.raw {
			printTasks(task)
			if task.Error != "" {
				fmt.Printf("  error: %s\n", task.Error)
			}
		}
		return nil
	}
	var timeline struct {
		ID     uint64           `json:"id"`
		Trace  string           `json:"trace"`
		State  fobs.TaskState   `json:"state"`
		Events []fobs.TaskEvent `json:"events"`
	}
	if err := c.do(http.MethodGet, fmt.Sprintf("/tasks/%d%s", id, suffix), nil, &timeline); err != nil {
		return err
	}
	if c.raw {
		return nil
	}
	fmt.Printf("task %d  state %s  trace %s\n", timeline.ID, timeline.State, timeline.Trace)
	for _, e := range timeline.Events {
		line := fmt.Sprintf("  %s  %-11s", e.At.Format(time.RFC3339Nano), e.Event)
		if e.Attempt > 0 {
			line += fmt.Sprintf("  attempt %d", e.Attempt)
		}
		if e.CC != "" {
			line += "  cc " + e.CC
		}
		if e.Detail != "" {
			line += "  " + e.Detail
		}
		fmt.Println(line)
	}
	return nil
}

func (c *client) cancel(args []string) error {
	id, err := argID(args)
	if err != nil {
		return err
	}
	var task fobs.Task
	if err := c.do(http.MethodDelete, fmt.Sprintf("/tasks/%d", id), nil, &task); err != nil {
		return err
	}
	if !c.raw {
		printTasks(task)
	}
	return nil
}

func argID(args []string) (uint64, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("want exactly one task id")
	}
	id, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad task id %q", args[0])
	}
	return id, nil
}

func printTasks(list ...fobs.Task) {
	fmt.Printf("%-4s %-10s %-10s %-8s %-3s %-5s %-22s %s\n",
		"ID", "STATE", "TENANT", "TRANSFER", "ATT", "DEDUP", "ADDR", "PATH")
	for _, t := range list {
		tenant := t.Spec.Tenant
		if tenant == "" {
			tenant = "default"
		}
		dedup := "-"
		if t.Stats != nil && t.Stats.Deduped {
			dedup = "hit"
		}
		fmt.Printf("%-4d %-10s %-10s %-8d %-3d %-5s %-22s %s\n",
			t.ID, t.State, tenant, t.Transfer, t.Attempts, dedup, t.Spec.Addr, t.Spec.Path)
	}
}
