#!/usr/bin/env bash
# Smoke test for `relmax serve`: drives a scripted query stream into the
# daemon and diffs its answer rows against `relmax batch` on the same graph,
# queries, and engine flags — the serving determinism contract, end to end
# through the real CLI. Also checks the typed-shed path (--max-queue 0) and
# that an `update` republish changes subsequent answers without breaking the
# stream, and serves the same queries over TCP (--port 0) to a client that
# half-closes its side before reading, diffs a --lanes 4 flood-path pass
# whose windows fan out over world ranges, and diffs indexed serve passes
# across writes (directed reach rows, then undirected label planes) against
# `relmax batch --index`. Run under ASan (the serve-smoke CI job does) and a
# leaked thread, socket, or graph copy fails the job.
#
# usage: serve_smoke.sh /path/to/relmax [workdir]
set -euo pipefail

CLI=${1:?usage: serve_smoke.sh /path/to/relmax [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"

SAMPLES=2000
SEED=5

# The README's Example-3 fixture: R(2,3) crosses one 0.3 edge, R(2,1) one
# 0.9 edge, everything else is disconnected.
cat > "$WORK/graph.txt" <<'EOF'
# relmax-graph v1
directed 4
2 1 0.9
2 3 0.3
EOF

cat > "$WORK/queries.txt" <<'EOF'
2 3
2 1
0 3
2 3
1 3
EOF

echo "== batch reference =="
"$CLI" batch --graph "$WORK/graph.txt" --queries "$WORK/queries.txt" \
  --samples $SAMPLES --seed $SEED | tee "$WORK/batch.out"

echo "== scripted serve stream =="
{
  echo "# serve-smoke scripted stream"
  while read -r s t; do echo "query $s $t"; done < "$WORK/queries.txt"
  echo "stats"
  echo "quit"
} > "$WORK/stream.txt"
"$CLI" serve --graph "$WORK/graph.txt" --samples $SAMPLES --seed $SEED \
  < "$WORK/stream.txt" | tee "$WORK/serve.out"

grep '^R(' "$WORK/batch.out" > "$WORK/batch.rows"
grep '^R(' "$WORK/serve.out" > "$WORK/serve.rows"
if ! diff -u "$WORK/batch.rows" "$WORK/serve.rows"; then
  echo "FAIL: serve answers differ from batch answers" >&2
  exit 1
fi
echo "OK: serve rows identical to batch rows"

grep -q '^OK bye$' "$WORK/serve.out" || {
  echo "FAIL: stream did not end with a clean OK bye" >&2; exit 1; }

echo "== TCP client that half-closes (--port 0) =="
# The client sends the scripted queries, closes its sending side and reads
# to EOF: every answer must still arrive (the socket's input EOF must not
# silence the response stream), and the rows must equal the batch rows. A
# second connection then stops the listener.
"$CLI" serve --graph "$WORK/graph.txt" --samples $SAMPLES --seed $SEED \
  --port 0 > "$WORK/tcp_server.out" &
SERVER_PID=$!
trap 'kill $SERVER_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 300); do
  grep -q '^serving on port ' "$WORK/tcp_server.out" && break
  sleep 0.1
done
PORT=$(sed -n 's/^serving on port //p' "$WORK/tcp_server.out")
[ -n "$PORT" ] || { echo "FAIL: serve --port 0 never listened" >&2; exit 1; }
python3 - "$PORT" "$WORK/queries.txt" > "$WORK/tcp.out" <<'PY'
import socket
import sys

port, queries = int(sys.argv[1]), sys.argv[2]


def exchange(payload, half_close):
    with socket.create_connection(("127.0.0.1", port), timeout=120) as conn:
        conn.sendall(payload.encode())
        if half_close:
            conn.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := conn.recv(4096):
            chunks.append(chunk)
    return b"".join(chunks).decode()


with open(queries) as f:
    stream = "".join(f"query {line.strip()}\n" for line in f if line.strip())
sys.stdout.write(exchange(stream, half_close=True))
sys.stdout.write(exchange("shutdown\n", half_close=False))
PY
wait $SERVER_PID
trap - EXIT
cat "$WORK/tcp.out"
grep '^R(' "$WORK/tcp.out" > "$WORK/tcp.rows" || true
if ! diff -u "$WORK/batch.rows" "$WORK/tcp.rows"; then
  echo "FAIL: half-closed TCP client rows differ from batch rows" >&2
  exit 1
fi
grep -q '^OK bye$' "$WORK/tcp.out" || {
  echo "FAIL: TCP shutdown did not answer OK bye" >&2; exit 1; }
echo "OK: half-closed TCP client got every row, identical to batch rows"

echo "== shed path (--max-queue 0) =="
"$CLI" serve --graph "$WORK/graph.txt" --max-queue 0 \
  < "$WORK/stream.txt" | tee "$WORK/shed.out"
SHED=$(grep -c '^ERR Unavailable: shed' "$WORK/shed.out")
if [ "$SHED" -ne 5 ]; then
  echo "FAIL: expected 5 typed Unavailable shed responses, got $SHED" >&2
  exit 1
fi
grep -q '^OK bye$' "$WORK/shed.out" || {
  echo "FAIL: shed stream did not shut down cleanly" >&2; exit 1; }
echo "OK: all 5 queries shed with typed Unavailable, clean shutdown"

echo "== update republish changes subsequent answers =="
printf 'query 2 3\nupdate 2 3 0.9\nquery 2 3\nquit\n' | \
  "$CLI" serve --graph "$WORK/graph.txt" --samples $SAMPLES --seed $SEED \
  | tee "$WORK/update.out"
BEFORE=$(grep '^R(2, 3)' "$WORK/update.out" | head -1)
AFTER=$(grep '^R(2, 3)' "$WORK/update.out" | tail -1)
grep -q '^OK epoch=1' "$WORK/update.out" || {
  echo "FAIL: update did not publish epoch 1" >&2; exit 1; }
if [ "$BEFORE" = "$AFTER" ]; then
  echo "FAIL: answer unchanged after raising the edge probability" >&2
  exit 1
fi
echo "OK: '$BEFORE' -> '$AFTER' across the epoch publish"

echo "== flood path at --lanes 4: world-range shards =="
# No --index: every window is answered by floods that fan out over (source x
# world range) shards on max(--threads, --lanes) = 4 workers, and a due
# window is split by source over the idle lanes. The 16-source bursts'
# sources spread over the 4 lanes and flood whole rows; a one-source burst's
# queries stay on one lane, which splits that flood into ranges. Either way
# the rows must equal `relmax batch` at one thread. Z = 2000
# is four 512-world lane blocks, and as_topology 0.1's floods are long
# enough for FloodRanges to split them in two, so the split is real.
"$CLI" gen --dataset as_topology --scale 0.1 --seed 42 \
  --out "$WORK/flood_graph.txt" > /dev/null
python3 - "$WORK/flood_graph.txt" > "$WORK/flood_queries.txt" <<'PY'
import random
import sys

with open(sys.argv[1]) as f:
    n = next(int(line.split()[1]) for line in f
             if line.startswith(("directed", "undirected")))
rng = random.Random(5)
for burst in range(12):
    source = rng.randrange(n)
    for _ in range(16):
        s = source if burst % 2 == 0 else rng.randrange(n)
        print(s, rng.randrange(n))
PY
"$CLI" batch --graph "$WORK/flood_graph.txt" \
  --queries "$WORK/flood_queries.txt" --samples $SAMPLES --seed $SEED \
  > "$WORK/flood_batch.out"
{
  echo "# flood-path serve-smoke stream"
  while read -r s t; do echo "query $s $t"; done < "$WORK/flood_queries.txt"
  echo "stats"
  echo "quit"
} > "$WORK/flood_stream.txt"
"$CLI" serve --graph "$WORK/flood_graph.txt" --samples $SAMPLES --seed $SEED \
  --lanes 4 < "$WORK/flood_stream.txt" > "$WORK/flood_serve.out"
grep '^R(' "$WORK/flood_batch.out" > "$WORK/flood_batch.rows"
grep '^R(' "$WORK/flood_serve.out" > "$WORK/flood_serve.rows"
if ! diff -u "$WORK/flood_batch.rows" "$WORK/flood_serve.rows"; then
  echo "FAIL: --lanes 4 flood-path serve rows differ from batch rows" >&2
  exit 1
fi
grep -q '^OK bye$' "$WORK/flood_serve.out" || {
  echo "FAIL: flood-path stream did not end with a clean OK bye" >&2; exit 1; }
echo "OK: $(wc -l < "$WORK/flood_serve.rows") --lanes 4 flood-path rows" \
  "identical to batch rows"

echo "== indexed serve (--index --lanes 2) across writes =="
# The scripted stream, then each write followed by the same queries. Every
# query answers on the epoch current when it arrived, so the rows must equal
# `batch --index` on the original, updated and extended edge lists in turn.
# Edge ids follow file order and `addedge` appends, so the files list the
# edges in the daemon's id order.
cat > "$WORK/graph_updated.txt" <<'EOF'
# relmax-graph v1
directed 4
2 1 0.9
2 3 0.9
EOF
cat > "$WORK/graph_extended.txt" <<'EOF'
# relmax-graph v1
directed 4
2 1 0.9
2 3 0.9
0 2 0.5
EOF
{
  echo "# indexed serve-smoke stream"
  while read -r s t; do echo "query $s $t"; done < "$WORK/queries.txt"
  echo "update 2 3 0.9"
  while read -r s t; do echo "query $s $t"; done < "$WORK/queries.txt"
  echo "addedge 0 2 0.5"
  while read -r s t; do echo "query $s $t"; done < "$WORK/queries.txt"
  echo "stats"
  echo "quit"
} > "$WORK/indexed_stream.txt"
"$CLI" serve --graph "$WORK/graph.txt" --samples $SAMPLES --seed $SEED \
  --index --lanes 2 < "$WORK/indexed_stream.txt" | tee "$WORK/indexed.out"
for g in graph graph_updated graph_extended; do
  "$CLI" batch --graph "$WORK/$g.txt" --queries "$WORK/queries.txt" \
    --samples $SAMPLES --seed $SEED --index > "$WORK/$g.index.out"
  cat "$WORK/$g.index.out" >&2
  grep '^R(' "$WORK/$g.index.out"
done > "$WORK/indexed_batch.rows"
grep '^R(' "$WORK/indexed.out" > "$WORK/indexed_serve.rows"
if ! diff -u "$WORK/indexed_batch.rows" "$WORK/indexed_serve.rows"; then
  echo "FAIL: indexed serve answers differ from batch --index answers" >&2
  exit 1
fi
grep -q '^OK epoch=2' "$WORK/indexed.out" || {
  echo "FAIL: the two writes did not publish epoch 2" >&2; exit 1; }
grep -q '^OK bye$' "$WORK/indexed.out" || {
  echo "FAIL: indexed stream did not end with a clean OK bye" >&2; exit 1; }
echo "OK: indexed serve rows identical to batch --index rows across 2 writes"

echo "== undirected indexed serve (--index --lanes 2) across writes =="
# The same check over component-label planes. An update down makes the
# worlds that lost the edge relabel from scratch; an update up and an
# addedge only add edges, so their worlds merge components instead. Each
# file below is the edge list after one more write, in the daemon's id order.
cat > "$WORK/ugraph.txt" <<'EOF'
# relmax-graph v1
undirected 6
0 1 0.8
1 2 0.6
2 3 0.5
3 4 0.7
1 4 0.4
EOF
sed 's/^1 2 0.6$/1 2 0.3/' "$WORK/ugraph.txt" > "$WORK/ugraph_down.txt"
sed 's/^3 4 0.7$/3 4 0.9/' "$WORK/ugraph_down.txt" > "$WORK/ugraph_up.txt"
{ cat "$WORK/ugraph_up.txt"; echo "4 5 0.5"; } > "$WORK/ugraph_added.txt"
printf '0 3\n0 4\n2 4\n0 5\n5 3\n1 3\n' > "$WORK/uqueries.txt"
{
  echo "# undirected indexed serve-smoke stream"
  for write in "update 1 2 0.3" "update 3 4 0.9" "addedge 4 5 0.5" ""; do
    while read -r s t; do echo "query $s $t"; done < "$WORK/uqueries.txt"
    if [ -n "$write" ]; then echo "$write"; fi
  done
  echo "stats"
  echo "quit"
} > "$WORK/uindexed_stream.txt"
"$CLI" serve --graph "$WORK/ugraph.txt" --samples $SAMPLES --seed $SEED \
  --index --lanes 2 < "$WORK/uindexed_stream.txt" | tee "$WORK/uindexed.out"
for g in ugraph ugraph_down ugraph_up ugraph_added; do
  "$CLI" batch --graph "$WORK/$g.txt" --queries "$WORK/uqueries.txt" \
    --samples $SAMPLES --seed $SEED --index > "$WORK/$g.index.out"
  cat "$WORK/$g.index.out" >&2
  grep '^R(' "$WORK/$g.index.out"
done > "$WORK/uindexed_batch.rows"
grep '^R(' "$WORK/uindexed.out" > "$WORK/uindexed_serve.rows"
if ! diff -u "$WORK/uindexed_batch.rows" "$WORK/uindexed_serve.rows"; then
  echo "FAIL: undirected indexed serve answers differ from batch --index" >&2
  exit 1
fi
grep -q '^OK epoch=3' "$WORK/uindexed.out" || {
  echo "FAIL: the three writes did not publish epoch 3" >&2; exit 1; }
grep -q '^OK bye$' "$WORK/uindexed.out" || {
  echo "FAIL: undirected indexed stream did not end with a clean OK bye" >&2
  exit 1; }
echo "OK: undirected indexed serve rows identical to batch --index rows" \
  "across 3 writes"

echo "serve-smoke: PASS"
