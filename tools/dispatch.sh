#!/usr/bin/env bash
# Scatter/gather driver for distributed MeRLiN suites.
#
# Partitions one suite manifest across n workers with the CLI's
# deterministic `--select i/n` filter, runs every worker (local
# processes by default, or one per SSH host with --hosts), gathers the
# per-worker --out stores, and folds them with `merlin_cli store
# merge` into a single store that is byte-identical to a single-host
# run of the same manifest — in any gather order.
#
# Fault tolerance: every --hosts entry is preflighted with a
# short-timeout ssh no-op (unreachable hosts are dropped from the
# rotation); each worker publishes live counters to a progress.json
# (via the CLI's --progress-json) that drives the heartbeat and stall
# detection; and failed shares are retried up to --retries times with
# exponential backoff, re-dispatched onto the surviving hosts and
# resumed from the dead worker's store and outcome journals — so a
# killed worker costs only its uncommitted injections, and the merged
# store still byte-matches the single-host run.
#
# Usage:
#   tools/dispatch.sh --manifest suite.json --workers 3 \
#       [--cli ./build/merlin_cli] [--work-dir dispatch-work] \
#       [--jobs N] [--out merged.json] [--hash] [--resume] \
#       [--retries N] [--retry-backoff S] [--stall-timeout S] \
#       [--hosts "user@h1 user@h2 ..."] [--reference ref.json]
#   tools/dispatch.sh --check-progress FILE [--stall-timeout S]
#
#   --manifest      suite manifest every worker runs its share of
#   --workers       number of shares (--select 0/n .. n-1/n)
#   --cli           merlin_cli binary (local path; with --hosts it must
#                   exist at this same path on every host)
#   --work-dir      scratch directory for worker stores/logs
#   --jobs          per-worker thread count (default 1)
#   --out           merged store path (default <work-dir>/merged.json)
#   --hash          partition by spec content hash (--select-hash) so
#                   shares survive manifest reordering
#   --resume        pass --resume to workers on the FIRST attempt too
#                   (retries always resume from the per-worker store
#                   and journals in <work-dir>)
#   --retries       re-dispatch a failed share up to N times (default 0)
#   --retry-backoff base seconds between retry rounds, doubling each
#                   round (default 5)
#   --stall-timeout kill a local worker whose share shows no progress
#                   (progress.json injection and campaign counters) for
#                   S seconds, turning a hang into a retryable failure
#                   (default 0 = off; local mode only — remote progress
#                   is not visible until scp)
#   --hosts         run workers over ssh, round-robin across the listed
#                   hosts, instead of as local processes; worker stores
#                   are copied back with scp
#   --reference     after merging, byte-compare the merged store
#                   against this single-host store and fail on any
#                   difference
#   --check-progress FILE
#                   standalone mode: judge a worker progress.json
#                   (written by `merlin_cli suite --progress-json`)
#                   against this host's clock and exit 0 when it is
#                   fresh or finished, 3 when its epoch is older than
#                   --stall-timeout seconds (default 60) — the stall
#                   test external monitors and CI reuse
set -euo pipefail

manifest="" workers="" cli="./build/merlin_cli" work_dir="dispatch-work"
jobs=1 out="" hash=0 resume=0 hosts="" reference=""
retries=0 retry_backoff=5 stall_timeout=0 check_progress=""

die() { echo "dispatch.sh: $*" >&2; exit 1; }

# progress_field FILE KEY: pull one scalar member out of a pretty-
# printed progress.json without a JSON tool (the writer indents one
# member per line, so a sed match on the quoted key is exact —
# "injections" does not match "injections_per_sec").
progress_field() {
    sed -n 's/^[[:space:]]*"'"$2"'": *"\{0,1\}\([^",}]*\)"\{0,1\}.*$/\1/p' \
        "$1" 2>/dev/null | head -1
}

while [ $# -gt 0 ]; do
    case "$1" in
        --manifest)       manifest="${2:?}"; shift 2 ;;
        --workers)        workers="${2:?}"; shift 2 ;;
        --cli)            cli="${2:?}"; shift 2 ;;
        --work-dir)       work_dir="${2:?}"; shift 2 ;;
        --jobs)           jobs="${2:?}"; shift 2 ;;
        --out)            out="${2:?}"; shift 2 ;;
        --hash)           hash=1; shift ;;
        --resume)         resume=1; shift ;;
        --retries)        retries="${2:?}"; shift 2 ;;
        --retry-backoff)  retry_backoff="${2:?}"; shift 2 ;;
        --stall-timeout)  stall_timeout="${2:?}"; shift 2 ;;
        --hosts)          hosts="${2:?}"; shift 2 ;;
        --reference)      reference="${2:?}"; shift 2 ;;
        --check-progress) check_progress="${2:?}"; shift 2 ;;
        -h|--help)       awk 'NR==1{next} /^#/{sub(/^# ?/,""); print; next} {exit}' "$0"; exit 0 ;;
        *) die "unknown argument '$1' (see --help)" ;;
    esac
done

# --------------------------------------------------- --check-progress
# Staleness is epoch-only: a finished worker ("state": "done") stops
# rewriting the file, and that is fine — its last epoch marks when it
# finished, which a monitor should treat as final, not stale.
if [ -n "$check_progress" ]; then
    [ -f "$check_progress" ] || die "progress file '$check_progress' not found"
    state=$(progress_field "$check_progress" state)
    [ -n "$state" ] || die "'$check_progress' has no \"state\" member — not a merlin progress.json?"
    if [ "$state" = "done" ]; then
        echo "dispatch.sh: $check_progress: worker finished"
        exit 0
    fi
    epoch=$(progress_field "$check_progress" epoch)
    case "$epoch" in (*[!0-9]*|'') die "'$check_progress' has no numeric \"epoch\" member" ;; esac
    limit=$stall_timeout
    [ "$limit" -gt 0 ] || limit=60
    age=$(( $(date +%s) - epoch ))
    # A remote worker's clock may run ahead of the monitor's: a
    # negative age is skew, not time travel — clamp it to "just
    # rewritten" instead of tripping the [ -gt ] comparison oddly.
    [ "$age" -ge 0 ] || age=0
    if [ "$age" -gt "$limit" ]; then
        echo "dispatch.sh: $check_progress: STALE — last rewrite ${age}s ago (limit ${limit}s)" >&2
        exit 3
    fi
    echo "dispatch.sh: $check_progress: fresh (${age}s old, state $state)"
    exit 0
fi

[ -n "$manifest" ] || die "--manifest is required"
[ -f "$manifest" ] || die "manifest '$manifest' not found"
[ -n "$workers" ] || die "--workers is required"
case "$workers" in (*[!0-9]*|'') die "--workers '$workers' is not a positive integer" ;; esac
[ "$workers" -ge 1 ] || die "--workers must be >= 1"
[ -x "$cli" ] || die "merlin_cli '$cli' is not executable"
case "$retries" in (*[!0-9]*|'') die "--retries '$retries' is not a non-negative integer" ;; esac
case "$retry_backoff" in (*[!0-9]*|'') die "--retry-backoff '$retry_backoff' is not a non-negative integer" ;; esac
case "$stall_timeout" in (*[!0-9]*|'') die "--stall-timeout '$stall_timeout' is not a non-negative integer" ;; esac

select_flag="--select"
[ "$hash" = 1 ] && select_flag="--select-hash"

mkdir -p "$work_dir"

# ---------------------------------------------------------- preflight
# A dead host must fail here, in seconds, not as a scatter timeout
# minutes in.  Unreachable hosts are dropped from the rotation (their
# would-be shares land on the survivors); losing every host is fatal.
read -r -a host_list <<< "$hosts"
if [ ${#host_list[@]} -gt 0 ]; then
    alive=()
    for h in "${host_list[@]}"; do
        if ssh -o BatchMode=yes -o ConnectTimeout=5 "$h" true \
               >> "$work_dir/preflight.log" 2>&1; then
            alive+=("$h")
        else
            echo "dispatch.sh: host '$h' failed the ssh preflight — dropping it from the rotation" >&2
        fi
    done
    [ ${#alive[@]} -gt 0 ] || die "no --hosts entry passed the ssh preflight (see $work_dir/preflight.log)"
    host_list=("${alive[@]}")
fi

# ------------------------------------------------------------ scatter
# One suite invocation per worker share.  Each worker gets a private
# store (its resume state and the merge input) and private
# progress/heartbeat files, so nothing below shares a file.  Workers
# run with --progress-json so the monitor can read structured
# progress instead of scraping logs.
#
# launch_worker SHARE ATTEMPT starts the share in the background and
# leaves its pid in $launched_pid (NOT echoed: a command substitution
# would fork a subshell, and the parent cannot `wait` on a subshell's
# children).  Retry attempts rotate the host assignment, so a share
# whose host died lands on a survivor, and always pass --resume: the
# per-worker store serves completed campaigns and the outcome journals
# resume the half-done one.
launch_worker() {
    local i="$1" attempt="$2"
    local store="$work_dir/worker-$i.json"
    local log="$work_dir/worker-$i.log"
    local prog="$work_dir/worker-$i.progress.json"
    local resume_args=()
    { [ "$resume" = 1 ] || [ "$attempt" -gt 0 ]; } && resume_args=(--resume)
    # Drop the previous attempt's progress file so the monitor never
    # reads a dead worker's counters as this attempt's progress.
    rm -f "$prog"
    if [ ${#host_list[@]} -eq 0 ]; then
        "$cli" suite "$manifest" "$select_flag" "$i/$workers" \
            --jobs "$jobs" --out "$store" --progress-json "$prog" \
            "${resume_args[@]}" >> "$log" 2>&1 &
    else
        # Round-robin shares across the surviving hosts, rotated by
        # the attempt number.  The remote side needs the same
        # merlin_cli path; the manifest is shipped to a per-worker
        # scratch directory and the worker store scp'd back.
        local host="${host_list[$(((i + attempt) % ${#host_list[@]}))]}"
        local remote_dir
        remote_dir=".merlin-dispatch/$(basename "$work_dir")/worker-$i"
        {
            ssh "$host" "mkdir -p '$remote_dir'" &&
            scp -q "$manifest" "$host:$remote_dir/manifest.json" &&
            ssh "$host" "'$cli' suite '$remote_dir/manifest.json' \
                $select_flag $i/$workers --jobs $jobs \
                --out '$remote_dir/worker.json' \
                --progress-json '$remote_dir/progress.json' \
                ${resume_args[*]:-}" &&
            # A hash share can be legitimately empty and write no
            # store: only scp one that exists, or the failure would
            # mark the worker dead after a perfectly good run.
            { ! ssh "$host" "test -f '$remote_dir/worker.json'" ||
              scp -q "$host:$remote_dir/worker.json" "$store"; } &&
            # The final progress.json feeds the gather summary; losing
            # it only degrades reporting, never the merge.
            { scp -q "$host:$remote_dir/progress.json" "$prog" || true; }
        } >> "$log" 2>&1 &
    fi
    launched_pid=$!
}

# monitor_worker SHARE PID heartbeats "epoch signature" into
# worker-SHARE.heartbeat every 2 s while the share runs.  The change
# signature is the worker's own progress.json (injection and campaign
# counters — fine-grained, moves within a campaign); it is empty until
# the first rewrite, and for remote shares.  With --stall-timeout, a
# local worker whose signature stops changing is killed so the retry
# loop can re-dispatch its share.
monitor_worker() {
    local i="$1" pid="$2"
    local hb="$work_dir/worker-$i.heartbeat"
    local prog="$work_dir/worker-$i.progress.json"
    local last_sig="" last_change
    last_change=$(date +%s)
    while kill -0 "$pid" 2>/dev/null; do
        local now sig
        now=$(date +%s)
        sig=""
        if [ -f "$prog" ]; then
            sig="inj=$(progress_field "$prog" injections) done=$(progress_field "$prog" done)"
        fi
        echo "$now $sig" > "$hb"
        if [ "$sig" != "$last_sig" ]; then
            last_sig=$sig
            last_change=$now
        elif [ "$stall_timeout" -gt 0 ] && [ ${#host_list[@]} -eq 0 ] &&
             [ $((now - last_change)) -ge "$stall_timeout" ]; then
            echo "dispatch.sh: worker $i stalled for ${stall_timeout}s — killing it for re-dispatch" >&2
            kill -9 "$pid" 2>/dev/null || true
            break
        fi
        sleep 2
    done
}

# Run the shares in $1.. to completion; failed share ids land in
# `failed` (global).  Monitors die with their workers.
run_round() {
    local attempt="$1"; shift
    local pids=() ids=()
    local i
    for i in "$@"; do
        launch_worker "$i" "$attempt"
        monitor_worker "$i" "$launched_pid" &
        pids+=("$launched_pid") ids+=("$i")
    done
    failed=()
    local k
    for k in "${!pids[@]}"; do
        if ! wait "${pids[$k]}"; then
            echo "dispatch.sh: worker ${ids[$k]}/$workers failed (attempt $((attempt + 1))):" >&2
            tail -5 "$work_dir/worker-${ids[$k]}.log" 2>/dev/null | sed 's/^/    /' >&2 || true
            failed+=("${ids[$k]}")
        fi
    done
    wait # reap the monitors
}

mapfile -t shares < <(seq 0 $((workers - 1)))
failed=()
recovered=()
backoff=$retry_backoff
attempt=0
while :; do
    run_round "$attempt" "${shares[@]}"
    if [ "$attempt" -gt 0 ] && [ ${#shares[@]} -gt 0 ]; then
        for i in "${shares[@]}"; do
            case " ${failed[*]:-} " in
                *" $i "*) ;;
                *) recovered+=("$i") ;;
            esac
        done
    fi
    [ ${#failed[@]} -gt 0 ] || break
    if [ "$attempt" -ge "$retries" ]; then
        plural=ies
        [ "$attempt" = 1 ] && plural=y
        die "shares ${failed[*]} still failing after $attempt retr$plural"
    fi
    attempt=$((attempt + 1))
    echo "dispatch.sh: retrying share(s) ${failed[*]} in ${backoff}s (retry $attempt of $retries)" >&2
    sleep "$backoff"
    backoff=$((backoff * 2))
    shares=("${failed[@]}")
done
if [ ${#recovered[@]} -gt 0 ]; then
    echo "dispatch.sh: recovered share(s) ${recovered[*]} by re-dispatch"
fi

# ------------------------------------------------------------- gather
# Every share exited 0, so together they ran the complete, disjoint
# selection 0/n..n-1/n.  Double-check that before trusting the merge:
# the per-worker selected counts must sum to exactly the manifest
# size.  Each count comes from the last "selection i/n: X of Y
# manifest campaigns" line of the worker's log (logs append across
# attempts, so the last line is the successful attempt's).
total="" sum=0
for i in $(seq 0 $((workers - 1))); do
    line=$(grep 'manifest campaigns$' "$work_dir/worker-$i.log" | tail -1 || true)
    [ -n "$line" ] || die "worker $i reported no selection (see $work_dir/worker-$i.log)"
    sel=$(echo "$line" | awk '{print $(NF-4)}')
    tot=$(echo "$line" | awk '{print $(NF-2)}')
    [ -z "$total" ] || [ "$total" = "$tot" ] || die "workers disagree on the manifest size ($total vs $tot)"
    total=$tot
    sum=$((sum + sel))
done
[ "$sum" = "$total" ] || die "selection incomplete: workers covered $sum of $total manifest campaigns"

# Fold every worker's store into one.  Merge is order-independent
# (identical keys must carry identical payloads), so any gather order
# reproduces the same bytes.  Every worker above exited 0, so a
# missing store here is a legitimately empty share (possible under
# --hash), not a lost worker — skip it rather than tripping `store
# merge`'s missing-input check.
[ -n "$out" ] || out="$work_dir/merged.json"
stores=()
for i in $(seq 0 $((workers - 1))); do
    store="$work_dir/worker-$i.json"
    if [ -f "$store" ]; then
        stores+=("$store")
    else
        echo "dispatch.sh: worker $i had an empty share" >&2
    fi
done
[ ${#stores[@]} -gt 0 ] || die "no worker produced a store"
"$cli" store merge --out "$out" "${stores[@]}"

if [ -n "$reference" ]; then
    cmp "$reference" "$out" ||
        die "merged store '$out' differs from reference '$reference'"
    echo "dispatch.sh: merged store byte-matches $reference"
fi

# Per-worker throughput, from each share's final progress.json.  A
# share can report 0 injections legitimately (everything cached or an
# empty hash share); a missing file just skips the line.
for i in $(seq 0 $((workers - 1))); do
    prog="$work_dir/worker-$i.progress.json"
    [ -f "$prog" ] || continue
    inj=$(progress_field "$prog" injections)
    rate=$(progress_field "$prog" injections_per_sec)
    secs=$(progress_field "$prog" elapsed_seconds)
    echo "dispatch.sh: worker $i: ${inj:-?} injections in $(awk -v v="${secs:-0}" 'BEGIN{printf "%.1f", v}')s ($(awk -v v="${rate:-0}" 'BEGIN{printf "%.1f", v}') inj/s)"
done
echo "dispatch.sh: $workers workers -> $out"
