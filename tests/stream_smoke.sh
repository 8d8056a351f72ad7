#!/bin/sh
# Serve-mode determinism smokes (the `stream_smoke`, `stream_soak`,
# `cancel_soak`, and `storm` ctest cases): pipe a stream through
# `batch_service --serve --verify` on 1 and 4 worker threads and assert
# both runs print the same rolling digest — and the same memo
# hit/miss/eviction counts. Each run also self-checks in-process (--verify
# re-serves the buffered stream on 1 thread), so a mismatch fails twice
# over. The soak/cancel/storm streams come from traffic_gen — inhomogeneous-
# Poisson arrivals over a rate curve, a weighted SLA class mix, Pareto-
# sized instances — so the determinism contract is certified on storm-
# shaped traffic, not a hand-rolled fixture loop.
#
#   smoke  — replays the small checked-in fixture with an unbounded memo
#            store. Also serves the memo_twins fixture (two records that
#            differ only in memcap/mem) under --memo --verify, whose
#            memo-free reference catches a memo identity blind to the
#            memory axis, and checks that `--algorithm X` and `--portfolio X`
#            print one digest for every registry name, in batch and serve mode.
#   soak   — a 2000-arrival diurnal stream (mostly content-distinct
#            records, a duplicate every 11th arrival, an interactive
#            deadline class) served in the bounded endless-serve
#            configuration: --memo-capacity 64 --window-history 8
#            --deadline. The distinct records overflow the capacity, so
#            LRU eviction runs ~1800 times and its determinism is what the
#            digest/memo-count comparison certifies.
#   cancel_soak — a diurnal storm of mostly single-job instances on few
#            machines — where `exact` completes at the estimator's
#            certified lower bound and the early-cancel rule provably
#            fires — served through --portfolio exact,fptas,mrt
#            --memo-capacity 64 --verify. Asserts that the rolling digest,
#            the memo counts, AND the cancelled-attempt count are
#            identical at 1 vs 4 threads, and that the count is nonzero.
#            Runs under the TSan CI leg.
#   shed_soak — the control-loop gate: a 3000-arrival flash-crowd storm
#            served over capacity under --shed --adapt (portfolio,
#            interactive deadline 8 — calibrated so the certified-lower-
#            bound distribution straddles it: ~40% of the arrivals shed,
#            the rest serve, a few down-shift). Asserts that the rolling
#            digest, the `policy:` shed/down-shift counters, AND the
#            learned `priors:` table state are bitwise identical at 1 vs 4
#            threads — then records a live 4-thread session and replays it
#            on 1 thread, certifying the shed set is re-derived bit-exact
#            from the record file. A second leg runs the same storm with a
#            memory axis (--memcap 1 on 4 machines, footprints log-uniform
#            up to 16) over the socket path: arrivals with mem > 4 are
#            provably unschedulable (kmin > m, certified lower bound +inf)
#            and MUST shed with a certificate-backed REJECT whose total
#            lands in the extended SUMMARY frame — traffic_gen --connect
#            exits nonzero unless the SUMMARY shed counter matches the
#            REJECT frames it saw — and the recorded memory-constrained
#            session must replay bit-exact on 1 thread. Runs under both
#            sanitizer CI legs.
#   storm  — the full acceptance pipeline: a >=10000-arrival flash-crowd
#            storm recorded while served live at --threads 4 under the
#            production configuration (portfolio, LRU memo,
#            interactive deadline), then replayed from the record file at
#            --threads 1 — batch_service --replay asserts the rolling
#            digest and every deterministic counter (memo, cancelled,
#            deadline misses) are bit-identical to the live session.
#   listen_soak — the storm acceptance gate over the network path: four
#            concurrent `traffic_gen --connect` clients (2600 arrivals
#            each — >=10000 total) fire flash-crowd storms at one
#            `batch_service --listen` server running the production
#            configuration with --record. Every client must get exactly
#            its own results back (traffic_gen exits nonzero otherwise),
#            the server must complete all 4 sessions with 0 rejections and
#            0 malformed records — and the recorded merged session must
#            replay bit-exact on --threads 1, certifying that the socket
#            merge layer adds no new determinism obligations. The server
#            binds port 0 and publishes the kernel-chosen port through
#            --port-file, so concurrent `ctest -j` runs cannot collide.
#   golden — the cross-version gate: replays tests/fixtures/golden_session.rec,
#            recorded by the build before the memo identity moved from the
#            text form to content bytes, at --threads 1 and 4. The session is
#            memo-heavy (a capacity-16 LRU store: hits and evictions) under
#            --adapt, whose reordered lanes are part of the memo identity,
#            with certificate sheds. batch_service --replay exits nonzero
#            unless the rolling digest and every counter (memo hits, misses and
#            evictions among them) match the recording, so a pass proves
#            the hit set is unchanged. A change that alters digests
#            re-records the fixture with its record-format bump:
#              traffic_gen --curve flash --seed 7 --horizon 40 \
#                  --max-arrivals 240 --dup-every 3 --jobs-min 1 --jobs-cap 4 \
#                  --machines 4 |
#              batch_service --serve --threads 4 --portfolio mrt,fptas,exact \
#                  --tie-break order --adapt --shed --deadline batch=20 --memo \
#                  --memo-capacity 16 --window 8 --max-inflight 2 \
#                  --record tests/fixtures/golden_session.rec
#   cli    — the command-line contract guard: every malformed or out-of-
#            range flag value (and a NaN/inf/negative --deadline budget),
#            empty value, unknown option, missing value and mode conflict
#            must exit 2 with a diagnostic naming the offending flag — never
#            an uncaught std::invalid_argument abort — on both batch_service
#            and traffic_gen, while the well-formed spellings still parse
#            and a flag given outside its mode warns whatever its value.
set -eu

bin=$1
fixture=$2
mode=${3:-smoke}
traffic_gen=${4:-}

need_traffic_gen() {
    if [ -z "$traffic_gen" ]; then
        echo "stream_smoke.sh: mode '$mode' needs the traffic_gen binary as arg 4" >&2
        exit 2
    fi
}

case $mode in
smoke)
    stream=$fixture
    run() {
        "$bin" --serve --verify --memo --window 3 --max-inflight 2 \
               --threads "$1" < "$stream"
    }
    # The free twin runs both lanes, the capped twin only lt-2approx: it
    # must miss the memo, and --verify (exit 1 on divergence) re-serves
    # both twins without it.
    twins=$(dirname "$fixture")/memo_twins.txt
    tout=$("$bin" --serve --verify --memo --portfolio mrt,lt-2approx \
                  --tie-break order --window 1 < "$twins")
    case $tout in
    *"memo: 0 hit(s)"*) ;;
    *)
        echo "stream_smoke (smoke): the memory-constrained twin was served from the memo:" >&2
        printf '%s\n' "$tout" >&2
        exit 1
        ;;
    esac
    # A single solver is the one-variant portfolio. `|| true`: some names
    # fail some instances (exit 1) but still print their digest.
    names=$("$bin" --help | sed -n 's/.*; known: *//p')
    if [ -z "$names" ]; then
        echo "stream_smoke (smoke): no registry names in --help" >&2
        exit 1
    fi
    for name in $names; do
        ba=$("$bin" --instances 3 --jobs 4 --machines 8 --eps 0.5 --algorithm "$name" \
             2>/dev/null | grep '^digest:' || true)
        bp=$("$bin" --instances 3 --jobs 4 --machines 8 --eps 0.5 --portfolio "$name" \
             2>/dev/null | grep '^digest:' || true)
        sa=$("$bin" --serve --eps 0.5 --algorithm "$name" < "$stream" \
             2>/dev/null | grep '^rolling digest:' || true)
        sp=$("$bin" --serve --eps 0.5 --portfolio "$name" < "$stream" \
             2>/dev/null | grep '^rolling digest:' || true)
        if [ -z "$ba" ] || [ "$ba" != "$bp" ] || [ -z "$sa" ] || [ "$sa" != "$sp" ]; then
            echo "stream_smoke (smoke): --algorithm $name differs from --portfolio $name:" >&2
            echo "  batch: '$ba' vs '$bp'; serve: '$sa' vs '$sp'" >&2
            exit 1
        fi
    done
    ;;
soak)
    need_traffic_gen
    stream=${TMPDIR:-/tmp}/stream_soak_$$.txt
    trap 'rm -f "$stream"' EXIT
    # 2000 arrivals, almost all content-distinct (per-arrival derived
    # generator seeds) — far more keys than the capacity-64 memo store
    # holds; every 11th arrival repeats a fixed duplicate so the hit path
    # stays exercised too.
    "$traffic_gen" --curve diurnal --seed 11 --horizon 80 --max-arrivals 2000 \
                   --dup-every 11 --jobs-cap 16 --machines 24 > "$stream"
    run() {
        "$bin" --serve --verify --memo --memo-capacity 64 --window-history 8 \
               --deadline interactive=0.5 --window 16 --max-inflight 4 \
               --threads "$1" < "$stream"
    }
    ;;
cancel_soak)
    need_traffic_gen
    stream=${TMPDIR:-/tmp}/stream_cancel_soak_$$.txt
    trap 'rm -f "$stream"' EXIT
    # Pareto(1.5) from jobs-min 1 makes ~2/3 of the arrivals single-job
    # instances on 4 machines — the deciders where `exact` completes at the
    # certified lower bound and early-cancels the fptas/mrt attempts.
    "$traffic_gen" --curve diurnal --seed 11 --horizon 40 --dup-every 11 \
                   --jobs-min 1 --jobs-cap 8 --machines 4 > "$stream"
    # exact first so its certified-optimal completions early-cancel the
    # later variants; where it can't decide, every variant runs.
    run() {
        "$bin" --serve --verify --memo --memo-capacity 64 --window-history 8 \
               --portfolio exact,fptas,mrt --window 16 --max-inflight 4 \
               --threads "$1" < "$stream"
    }
    ;;
shed_soak)
    need_traffic_gen
    tmp=${TMPDIR:-/tmp}
    stream=$tmp/shed_soak_$$.txt
    record=$tmp/shed_soak_$$.rec
    memrecord=$tmp/shed_soak_$$.memrec
    portfile=$tmp/shed_soak_$$.port
    serverlog=$tmp/shed_soak_$$.log
    server=
    # SIGKILL for the same reason as listen_soak: under --listen SIGTERM
    # means "drain", which on a failure path would wait forever.
    trap 'if [ -n "${server:-}" ]; then kill -9 "$server" 2>/dev/null || true; fi; rm -f "$stream" "$record" "$memrecord" "$portfile" "$serverlog"' EXIT
    # Jobs 1-6 on 4 machines put the certified lower bounds on both sides
    # of deadline 8 — the storm MUST shed some arrivals and serve others,
    # or the mode certifies nothing (asserted below).
    "$traffic_gen" --curve flash --seed 7 --horizon 40 --max-arrivals 3000 \
                   --dup-every 11 --jobs-min 1 --jobs-cap 6 --machines 4 > "$stream"
    run() {
        "$bin" --serve --verify --portfolio exact,fptas,mrt \
               --shed --adapt --deadline interactive=8 \
               --memo --memo-capacity 64 --window 16 --max-inflight 4 \
               --threads "$1" < "$stream"
    }
    ;;
storm)
    need_traffic_gen
    tmp=${TMPDIR:-/tmp}
    stream=$tmp/storm_$$.txt
    record=$tmp/storm_$$.rec
    trap 'rm -f "$stream" "$record"' EXIT
    # The flash-crowd defaults over horizon 120 yield ~13000 arrivals for
    # this seed (deterministic — the stream is a pure function of the
    # flags); machines 4 keeps `exact` cheap enough for the sanitizer legs
    # while still letting it win (and early-cancel) on the 1-job deciders.
    "$traffic_gen" --curve flash --seed 7 --horizon 120 --dup-every 11 \
                   --jobs-min 1 --jobs-cap 6 --machines 4 > "$stream"
    arrivals=$(grep -c '^moldable-instance' "$stream")
    if [ "$arrivals" -lt 10000 ]; then
        echo "stream_smoke (storm): expected >=10000 arrivals, got $arrivals" >&2
        exit 1
    fi

    live=$("$bin" --serve --threads 4 --portfolio exact,fptas,mrt \
           --memo --memo-capacity 64 --deadline interactive=0.5 \
           --window 16 --max-inflight 4 --record "$record" < "$stream")
    dlive=$(printf '%s\n' "$live" | grep '^rolling digest:' || true)
    mlive=$(printf '%s\n' "$live" | grep '^memo:' || true)
    clive=$(printf '%s\n' "$live" | grep '^cancelled:' || true)
    if [ -z "$dlive" ] || [ -z "$mlive" ] || [ -z "$clive" ]; then
        echo "stream_smoke (storm): live serve output missing digest/memo/cancelled lines" >&2
        exit 1
    fi
    case $mlive in
    *" 0 eviction(s)"* | "memo: 0 hit(s)"*)
        echo "stream_smoke (storm): expected LRU evictions and memo hits, got: $mlive" >&2
        exit 1
        ;;
    esac
    case $clive in
    "cancelled: 0 "*)
        echo "stream_smoke (storm): expected cancelled attempts, got: $clive" >&2
        exit 1
        ;;
    esac

    # The acceptance gate: replay the recorded session on 1 thread;
    # batch_service --replay exits nonzero unless the rolling digest and
    # every deterministic counter match the recording bit for bit.
    if ! "$bin" --replay "$record" --threads 1; then
        echo "stream_smoke (storm): replay diverged from the recorded live serve" >&2
        exit 1
    fi
    echo "stream_smoke (storm) OK: $arrivals arrivals; $dlive; $mlive; $clive; replay matched on 1 thread"
    exit 0
    ;;
golden)
    golden=$(dirname "$fixture")/golden_session.rec
    served=$(grep '^# served ' "$golden" || true)
    case $served in
    *" memo-hits=0 "* | *" memo-evictions=0 "* | "")
        echo "stream_smoke (golden): the fixture must record memo hits and evictions: '$served'" >&2
        exit 1
        ;;
    esac
    for threads in 1 4; do
        if ! "$bin" --replay "$golden" --threads "$threads"; then
            echo "stream_smoke (golden): replay at --threads $threads diverged from the recording" >&2
            exit 1
        fi
    done
    echo "stream_smoke (golden) OK: replayed bit-exact at 1 and 4 threads"
    exit 0
    ;;
listen_soak)
    need_traffic_gen
    tmp=${TMPDIR:-/tmp}
    record=$tmp/listen_soak_$$.rec
    portfile=$tmp/listen_soak_$$.port
    serverlog=$tmp/listen_soak_$$.log
    server=
    # SIGKILL, not SIGTERM: under --listen the server treats SIGTERM as
    # "drain" (stop accepting, finish live sessions) — on a failure path
    # with hung clients that would wait forever. The trap must reap.
    trap 'if [ -n "${server:-}" ]; then kill -9 "$server" 2>/dev/null || true; fi; rm -f "$record" "$portfile" "$serverlog"' EXIT

    # --listen-sessions 4 makes the server drain and exit after the four
    # expected clients; port 0 + --port-file is the ctest -j-safe handshake.
    "$bin" --listen 127.0.0.1:0 --port-file "$portfile" --listen-sessions 4 \
           --threads 4 --portfolio exact,fptas,mrt \
           --memo --memo-capacity 64 --deadline interactive=0.5 \
           --window 16 --max-inflight 4 --record "$record" > "$serverlog" 2>&1 &
    server=$!

    i=0
    while [ ! -s "$portfile" ]; do
        if ! kill -0 "$server" 2>/dev/null; then
            echo "stream_smoke (listen_soak): server exited before publishing its port:" >&2
            cat "$serverlog" >&2
            exit 1
        fi
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "stream_smoke (listen_soak): server never published its port" >&2
            exit 1
        fi
        sleep 0.1
    done
    port=$(cat "$portfile")

    # Four concurrent storm clients, distinct seeds. The flash curve yields
    # far more than 2600 arrivals over this horizon, so --max-arrivals pins
    # each client to exactly 2600 records — 10400 total, deterministically.
    # traffic_gen --connect exits nonzero unless it is admitted and receives
    # exactly one result per arrival sent.
    pids=
    for seed in 7 8 9 10; do
        "$traffic_gen" --curve flash --seed "$seed" --horizon 120 \
                       --max-arrivals 2600 --dup-every 11 \
                       --jobs-min 1 --jobs-cap 6 --machines 4 \
                       --connect "127.0.0.1:$port" &
        pids="$pids $!"
    done
    clients_ok=1
    for pid in $pids; do
        wait "$pid" || clients_ok=0
    done
    if [ "$clients_ok" -ne 1 ]; then
        echo "stream_smoke (listen_soak): a storm client failed its round trip" >&2
        cat "$serverlog" >&2
        exit 1
    fi
    if ! wait "$server"; then
        echo "stream_smoke (listen_soak): server exited nonzero:" >&2
        cat "$serverlog" >&2
        exit 1
    fi
    server=

    if ! grep -q '^sessions: 4 completed, 0 rejected' "$serverlog"; then
        echo "stream_smoke (listen_soak): expected 4 completed / 0 rejected sessions:" >&2
        grep '^sessions:' "$serverlog" >&2 || cat "$serverlog" >&2
        exit 1
    fi
    if ! grep -q '^stream: .* 10400 instance(s) (10400 solved, 0 failed, 0 malformed)' "$serverlog"; then
        echo "stream_smoke (listen_soak): expected 10400 clean instances:" >&2
        grep '^stream:' "$serverlog" >&2 || cat "$serverlog" >&2
        exit 1
    fi

    # The acceptance gate: the merged 4-client session, whose interleaving
    # real socket timing decided, must re-serve serially from the record
    # file to the same rolling digest and every deterministic counter.
    if ! "$bin" --replay "$record" --threads 1; then
        echo "stream_smoke (listen_soak): replay diverged from the recorded live serve" >&2
        exit 1
    fi
    dlive=$(grep '^rolling digest:' "$serverlog" || true)
    echo "stream_smoke (listen_soak) OK: 4 sessions x 2600 arrivals; $dlive; replay matched on 1 thread"
    exit 0
    ;;
cli)
    need_traffic_gen
    # Regression guard for the numeric CLI hardening: a malformed value must
    # exit 2 with a diagnostic that names the flag, not abort on an uncaught
    # std::invalid_argument from stoull/stod.
    expect_cli_error() {
        tool=$1
        needle=$2
        shift 2
        set +e
        err=$("$tool" "$@" 2>&1 >/dev/null)
        status=$?
        set -e
        if [ "$status" -ne 2 ]; then
            echo "stream_smoke (cli): '$*' expected exit 2, got $status" >&2
            printf '%s\n' "$err" >&2
            exit 1
        fi
        case $err in
        *"$needle"*) ;;
        *)
            echo "stream_smoke (cli): '$*' diagnostic does not name the flag (wanted '$needle'):" >&2
            printf '%s\n' "$err" >&2
            exit 1
            ;;
        esac
    }

    expect_cli_error "$bin" "--instances needs a non-negative integer" --instances banana
    expect_cli_error "$bin" "--jobs needs a non-negative integer" --jobs 4x
    expect_cli_error "$bin" "--machines needs a non-negative integer" --machines ''
    expect_cli_error "$bin" "--seed needs a non-negative integer" --seed -5
    expect_cli_error "$bin" "--threads needs a non-negative integer" --threads 1.5
    expect_cli_error "$bin" "--window needs a non-negative integer" --window 16x
    expect_cli_error "$bin" "--memo-capacity needs a non-negative integer" --memo-capacity 64k
    expect_cli_error "$bin" "--eps needs a number" --eps nope
    # --deadline budgets additionally reject NaN/inf/negative seconds: a
    # non-finite or negative budget is not a deadline, it is a parse bug.
    expect_cli_error "$bin" "--deadline SECONDS must be finite and non-negative" \
        --serve --shed --deadline interactive=nan
    expect_cli_error "$bin" "--deadline SECONDS must be finite and non-negative" \
        --serve --shed --deadline interactive=inf
    expect_cli_error "$bin" "--deadline SECONDS must be finite and non-negative" \
        --serve --shed --deadline interactive=-1
    expect_cli_error "$bin" "--deadline needs a number" --serve --deadline interactive=soon

    expect_cli_error "$traffic_gen" "--max-arrivals needs a non-negative integer" --max-arrivals many
    expect_cli_error "$traffic_gen" "--seed needs a non-negative integer" --seed 0x7
    expect_cli_error "$traffic_gen" "--horizon needs a number" --horizon 'twelve'
    expect_cli_error "$traffic_gen" "--memcap needs a number" --memcap wat
    expect_cli_error "$traffic_gen" "--mem-min needs a number" --mem-min ''
    expect_cli_error "$traffic_gen" "--mem-max needs a number" --mem-max 4GiB

    # The well-formed spellings still parse (the engine separately requires
    # deadlines > 0, so 0.5 is the smallest shape tested here), and the
    # memory flags accept the documented range.
    "$bin" --serve --shed --deadline interactive=0.5 --deadline batch=8.5 < /dev/null > /dev/null
    "$traffic_gen" --curve flash --seed 3 --horizon 5 --max-arrivals 5 \
                   --machines 4 --memcap 1 --mem-min 0.25 --mem-max 16 > /dev/null

    # Values that fit the parse but not the destination: 2^64-1 machines
    # used to wrap to -1, and a wrapping reorder-buffer size served nothing.
    expect_cli_error "$bin" "--machines needs a non-negative integer" \
        --machines 18446744073709551615
    expect_cli_error "$traffic_gen" "--machines needs a non-negative integer" \
        --machines 18446744073709551615
    # Above the instance format's 2^62 cap the flag is refused by name, not
    # later by the first Instance built from it.
    expect_cli_error "$bin" "--machines must be at most 2^62" --machines 4611686018427387905
    expect_cli_error "$traffic_gen" "--machines must be at most 2^62" \
        --machines 4611686018427387905
    expect_cli_error "$bin" "window x max-inflight" \
        --serve --window 4294967296 --max-inflight 4294967296 < "$fixture"

    # Every other exit-2 rule of batch_service: the parser's ...
    expect_cli_error "$bin" "unknown option --bogus" --bogus
    # The removed race mode's flags are unknown options now.
    expect_cli_error "$bin" "unknown option --race" --portfolio mrt,fptas --race
    expect_cli_error "$bin" "unknown option --race-width" --portfolio mrt,fptas --race-width 2
    expect_cli_error "$bin" "missing value for --window" --window
    expect_cli_error "$bin" "--tie-break must be 'wall' or 'order'" --tie-break fast
    for flag in --portfolio --input --listen --port-file --watch --record --replay; do
        expect_cli_error "$bin" "$flag" "$flag" ''
    done
    expect_cli_error "$traffic_gen" "--connect" --connect ''
    expect_cli_error "$traffic_gen" "--families" --families ,
    # ... and the mode conflicts main checks by hand.
    nodir=${TMPDIR:-/tmp}/cli_guard_missing_$$
    expect_cli_error "$bin" "--listen and --watch are both ingestion sources" \
        --listen 127.0.0.1:0 --watch "$nodir"
    expect_cli_error "$bin" "--verify buffers stdin" --listen 127.0.0.1:0 --verify
    expect_cli_error "$bin" "--verify buffers stdin" --watch "$nodir" --verify
    expect_cli_error "$bin" "--listen/--watch are serve-mode sources" \
        --listen 127.0.0.1:0 --input "$nodir"
    expect_cli_error "$bin" "--listen/--watch are serve-mode sources" \
        --watch "$nodir" --input "$nodir"
    for conflict in --serve "--input $nodir" "--record $nodir/r.rec"; do
        # shellcheck disable=SC2086 # $conflict is a flag and its value
        expect_cli_error "$bin" "--replay re-serves a recorded session" \
            --replay "$nodir/r.rec" $conflict
    done
    expect_cli_error "$bin" "--record captures a serve session" --record "$nodir/r.rec"
    expect_cli_error "$bin" "--serve reads records from stdin" --serve --input "$nodir"
    # ... and the serve-config rules, which have one home: StreamSolver's
    # check_config.
    expect_cli_error "$bin" "shed requires at least one class deadline" \
        --serve --shed < "$fixture"
    expect_cli_error "$bin" "adapt requires a portfolio" --serve --adapt < "$fixture"
    # mem-greedy was merged into lt-2approx: the name is refused.
    expect_cli_error "$bin" "unknown algorithm 'mem-greedy'" --algorithm mem-greedy
    expect_cli_error "$bin" "unknown algorithm 'mem-greedy'" \
        --serve --algorithm mem-greedy < "$fixture"

    # A refused serve config exits before any side effect: an existing
    # --record file keeps its bytes, --listen binds nothing (no
    # `listening on` line, no port file) and --watch writes no ledger.
    tmp=${TMPDIR:-/tmp}
    rec=$tmp/cli_guard_$$.rec
    keep=$tmp/cli_guard_$$.keep
    portfile=$tmp/cli_guard_$$.port
    watchdir=$tmp/cli_guard_$$.watch
    trap 'rm -rf "$rec" "$keep" "$portfile" "$watchdir"' EXIT
    mkdir "$watchdir"
    sed -n '1,/^$/p' "$fixture" | "$bin" --serve --record "$rec" > /dev/null
    "$bin" --replay "$rec" > /dev/null
    cp "$rec" "$keep"
    for refused in "--window 0|window must be >= 1" "--eps 0|eps must be in (0, 1]" \
                   "--deadline c=0|deadline for class 'c'" \
                   "--portfolio mrt,no-such|unknown algorithm 'no-such'" \
                   "--shed|shed requires at least one class deadline" \
                   "--adapt|adapt requires a portfolio"; do
        flags=${refused%%|*}
        needle=${refused#*|}
        # shellcheck disable=SC2086 # $flags is a flag and its value
        expect_cli_error "$bin" "$needle" --serve $flags --record "$rec" < "$fixture"
        # shellcheck disable=SC2086
        expect_cli_error "$bin" "$needle" --watch "$watchdir" $flags --record "$rec"
        set +e
        # shellcheck disable=SC2086
        out=$("$bin" --listen 127.0.0.1:0 --port-file "$portfile" $flags \
                     --record "$rec" 2>&1)
        status=$?
        set -e
        if [ "$status" -ne 2 ] || [ -e "$portfile" ]; then
            echo "stream_smoke (cli): refused '$flags' under --listen: exit $status, port file $([ -e "$portfile" ] && echo written || echo absent)" >&2
            printf '%s\n' "$out" >&2
            exit 1
        fi
        case $out in
        *"listening on"*)
            echo "stream_smoke (cli): refused '$flags' still started --listen:" >&2
            printf '%s\n' "$out" >&2
            exit 1
            ;;
        esac
        if ! cmp -s "$rec" "$keep"; then
            echo "stream_smoke (cli): refused '$flags' rewrote the --record file" >&2
            exit 1
        fi
        if [ -e "$watchdir/.moldable-served" ]; then
            echo "stream_smoke (cli): refused '$flags' opened the --watch ledger" >&2
            exit 1
        fi
    done
    "$bin" --replay "$rec" > /dev/null

    # A flag given outside its mode warns and the run still succeeds — even
    # when its value equals the default.
    set +e
    err=$("$bin" --instances 1 --max-sessions 64 2>&1 >/dev/null)
    status=$?
    set -e
    case $status:$err in
    0:*"--max-sessions only affects listen mode"*) ;;
    *)
        echo "stream_smoke (cli): --max-sessions outside listen mode did not warn (exit $status):" >&2
        printf '%s\n' "$err" >&2
        exit 1
        ;;
    esac
    echo "stream_smoke (cli) OK: malformed values and mode conflicts exit 2 with named diagnostics"
    exit 0
    ;;
*)
    echo "stream_smoke.sh: unknown mode '$mode' (want smoke, soak, cancel_soak, shed_soak, storm, listen_soak, or cli)" >&2
    exit 2
    ;;
esac

out1=$(run 1)
out4=$(run 4)
# `|| true`: under set -e a no-match grep would kill the script before the
# missing-line diagnostics below could run.
d1=$(printf '%s\n' "$out1" | grep '^rolling digest:' || true)
d4=$(printf '%s\n' "$out4" | grep '^rolling digest:' || true)
m1=$(printf '%s\n' "$out1" | grep '^memo:' || true)
m4=$(printf '%s\n' "$out4" | grep '^memo:' || true)

if [ -z "$d1" ] || [ -z "$d4" ]; then
    echo "stream_smoke ($mode): missing rolling digest line" >&2
    exit 1
fi
if [ "$d1" != "$d4" ]; then
    echo "stream_smoke ($mode): rolling digest differs across thread counts:" >&2
    echo "  threads=1: $d1" >&2
    echo "  threads=4: $d4" >&2
    exit 1
fi
if [ -z "$m1" ] || [ "$m1" != "$m4" ]; then
    echo "stream_smoke ($mode): memo counts differ (or are missing) across thread counts:" >&2
    echo "  threads=1: $m1" >&2
    echo "  threads=4: $m4" >&2
    exit 1
fi
if [ "$mode" = soak ]; then
    # The endless-serve config must actually have evicted (distinct records
    # overflow capacity 64) — a soak that never evicts certifies nothing.
    case $m1 in
    *" 0 eviction(s)"* | "memo: 0 hit(s)"*)
        echo "stream_smoke (soak): expected LRU evictions and memo hits, got: $m1" >&2
        exit 1
        ;;
    esac
fi
if [ "$mode" = cancel_soak ]; then
    # `|| true`: under set -e a no-match grep would kill the script before
    # the diagnostics below could name what went missing.
    c1=$(printf '%s\n' "$out1" | grep '^cancelled:' || true)
    c4=$(printf '%s\n' "$out4" | grep '^cancelled:' || true)
    if [ -z "$c1" ] || [ "$c1" != "$c4" ]; then
        echo "stream_smoke (cancel_soak): cancelled-attempt counts differ (or are missing) across thread counts:" >&2
        echo "  threads=1: $c1" >&2
        echo "  threads=4: $c4" >&2
        exit 1
    fi
    case $c1 in
    "cancelled: 0 "*)
        # A soak in which early-cancel never fires certifies nothing about
        # the rule.
        echo "stream_smoke (cancel_soak): expected cancelled attempts, got: $c1" >&2
        exit 1
        ;;
    esac
    echo "stream_smoke (cancel_soak) OK: $c1 (threads 1 == threads 4)"
fi
if [ "$mode" = shed_soak ]; then
    # `|| true`: under set -e a no-match grep would kill the script before
    # the diagnostics below could name what went missing.
    p1=$(printf '%s\n' "$out1" | grep '^policy:' || true)
    p4=$(printf '%s\n' "$out4" | grep '^policy:' || true)
    if [ -z "$p1" ] || [ "$p1" != "$p4" ]; then
        echo "stream_smoke (shed_soak): policy counters differ (or are missing) across thread counts:" >&2
        echo "  threads=1: $p1" >&2
        echo "  threads=4: $p4" >&2
        exit 1
    fi
    case $p1 in
    "policy: 0 shed"*)
        # A shed soak in which nothing sheds certifies nothing about the
        # admission certificate.
        echo "stream_smoke (shed_soak): expected shed arrivals, got: $p1" >&2
        exit 1
        ;;
    *" 0 down-shifted")
        echo "stream_smoke (shed_soak): expected down-shifted instances, got: $p1" >&2
        exit 1
        ;;
    esac
    # The learned prior table is digest-grade state: every priors: line
    # (class ranking + scores) must match bitwise across thread counts.
    pr1=$(printf '%s\n' "$out1" | grep '^priors:' || true)
    pr4=$(printf '%s\n' "$out4" | grep '^priors:' || true)
    if [ -z "$pr1" ] || [ "$pr1" != "$pr4" ]; then
        echo "stream_smoke (shed_soak): prior tables differ (or are missing) across thread counts:" >&2
        echo "  threads=1: $pr1" >&2
        echo "  threads=4: $pr4" >&2
        exit 1
    fi

    # The record/replay half of the gate: a live 4-thread shed session must
    # replay bit-exact on 1 thread — batch_service --replay asserts the
    # digest, the shed/down-shift counters, and everything else recorded.
    "$bin" --serve --threads 4 --portfolio exact,fptas,mrt \
           --shed --adapt --deadline interactive=8 \
           --memo --memo-capacity 64 --window 16 --max-inflight 4 \
           --record "$record" < "$stream" > /dev/null
    replay_out=$("$bin" --replay "$record" --threads 1)
    case $replay_out in
    *"policy re-derived"*) ;;
    *)
        echo "stream_smoke (shed_soak): replay did not re-derive the shed set:" >&2
        printf '%s\n' "$replay_out" >&2
        exit 1
        ;;
    esac
    # The memory-axis leg, over the socket path so the extended SUMMARY
    # frame is on the wire: capacity 1 per machine x 4 machines against
    # footprints log-uniform on [0.25, 16] means arrivals with mem > 4 are
    # provably unschedulable — ceil(mem/C) machines needed, only 4 exist,
    # so the certified lower bound is +inf and --shed MUST refuse them with
    # a certificate-backed REJECT. The feasible rest serve through the
    # memory-aware list scheduler (--algorithm lt-2approx; the default
    # portfolio variants are memory-blind and would fail closed). traffic_gen
    # --connect exits nonzero unless the SUMMARY's shed counter equals the
    # per-record REJECT frames it saw and every arrival was answered.
    "$bin" --listen 127.0.0.1:0 --port-file "$portfile" --listen-sessions 1 \
           --threads 4 --algorithm lt-2approx --shed --deadline interactive=8 \
           --memo --memo-capacity 64 --window 16 --max-inflight 4 \
           --record "$memrecord" > "$serverlog" 2>&1 &
    server=$!
    i=0
    while [ ! -s "$portfile" ]; do
        if ! kill -0 "$server" 2>/dev/null; then
            echo "stream_smoke (shed_soak): memory-leg server exited before publishing its port:" >&2
            cat "$serverlog" >&2
            exit 1
        fi
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "stream_smoke (shed_soak): memory-leg server never published its port" >&2
            exit 1
        fi
        sleep 0.1
    done
    port=$(cat "$portfile")
    if ! "$traffic_gen" --curve flash --seed 7 --horizon 40 --max-arrivals 600 \
                        --jobs-min 1 --jobs-cap 6 --machines 4 \
                        --classes interactive=1 \
                        --memcap 1 --mem-min 0.25 --mem-max 16 \
                        --connect "127.0.0.1:$port"; then
        echo "stream_smoke (shed_soak): memory-tight client failed its round trip:" >&2
        cat "$serverlog" >&2
        exit 1
    fi
    if ! wait "$server"; then
        echo "stream_smoke (shed_soak): memory-leg server exited nonzero:" >&2
        cat "$serverlog" >&2
        exit 1
    fi
    server=
    # The session totals must show certificate-backed sheds — a memory
    # storm in which nothing sheds certifies nothing about the axis.
    if ! grep -q 'record(s) shed' "$serverlog"; then
        echo "stream_smoke (shed_soak): memory-tight storm shed nothing:" >&2
        grep '^sessions:' "$serverlog" >&2 || cat "$serverlog" >&2
        exit 1
    fi
    mshed=$(grep '^sessions:' "$serverlog" || true)
    # And the recorded memory-constrained session replays bit-exact on 1
    # thread: mem/memcap round-trip through the record file and the shed
    # set (including the memory-infeasible refusals) is re-derived.
    if ! "$bin" --replay "$memrecord" --threads 1 > /dev/null; then
        echo "stream_smoke (shed_soak): memory-leg replay diverged from the recorded serve" >&2
        exit 1
    fi
    echo "stream_smoke (shed_soak) OK: $p1 (threads 1 == threads 4; recorded shed session replayed bit-exact; memory leg: $mshed)"
fi
echo "stream_smoke ($mode) OK: $d1, $m1 (threads 1 == threads 4)"
