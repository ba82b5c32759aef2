#!/bin/sh
# Runs one measurement gate and maps its exit status for CI.
#
#   ci/gate.sh <command> [args...]
#
# Gates exit 0 when the claim holds, 1 when it does not, and 3 when the
# host could not make the measurement (too few CPUs, a bar the runner
# cannot reproduce). Status 3 passes the step with a notice, since the
# gate's correctness checks ran and only the timing claim is unproven;
# every other status is passed through unchanged.
"$@"
status=$?
if [ "$status" -eq 3 ]; then
    echo "gate inconclusive on this runner (exit 3); its correctness checks passed: $*"
    exit 0
fi
exit "$status"
