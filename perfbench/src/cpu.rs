//! Process CPU time summed over all threads, from
//! `/proc/self/task/*/schedstat` (nanoseconds on CPU), and the host's
//! steal time from `/proc/stat`.

/// CPU nanoseconds consumed so far by the threads alive now.
pub fn process_cpu_ns() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0u64;
    for task in dir.flatten() {
        if let Ok(s) = std::fs::read_to_string(task.path().join("schedstat")) {
            if let Some(ns) = s
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
            {
                total += ns;
            }
        }
    }
    total
}

/// Host-wide CPU tick counters from `/proc/stat`: (steal, total).
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// The share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Reads the aggregate `cpu` line of `/proc/stat` (zeros if unreadable).
pub fn host_ticks() -> HostTicks {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return HostTicks::default();
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return HostTicks::default();
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    HostTicks {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().sum(),
    }
}
