//! Minimal dependency-free argument parsing for the `hare` binary.

use hare_cluster::{Bandwidth, Cluster, Heterogeneity, NetworkModel};
use hare_workload::Domain;
use std::collections::BTreeMap;

/// Parsed `--key value` options plus positional arguments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Options {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Options {
    /// Parse an argument list (without the program name). `--key value`
    /// pairs become flags; bare `--key` stores an empty string; everything
    /// else is positional.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut out = Options::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty flag name".into());
                }
                let value = iter.next_if(|v| !v.starts_with("--")).unwrap_or_default();
                if out.flags.insert(key.to_string(), value).is_some() {
                    return Err(format!("duplicate flag --{key}"));
                }
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// String flag with default.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.flags.get(key).map(|s| s.as_str()).unwrap_or(default)
    }

    /// Presence of a bare flag.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// The first flag, in name order, that is not among the
    /// space-separated `known` names.
    pub fn unknown_flag(&self, known: &str) -> Option<&str> {
        let known: Vec<&str> = known.split_whitespace().collect();
        self.flags
            .keys()
            .map(String::as_str)
            .find(|flag| !known.contains(flag))
    }

    /// Numeric flag with default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }

    /// Build the cluster from `--cluster testbed|low:N|mid:N|high:N` and
    /// `--bandwidth <Gbps>`. `N` must cover one GPU of each kind the level
    /// mixes, and the bandwidth must be finite and at least one byte per
    /// second.
    pub fn cluster(&self) -> Result<Cluster, String> {
        let spec = self.get("cluster", "testbed");
        let cluster = match spec.split_once(':') {
            None if spec == "testbed" => Cluster::testbed15(),
            Some((level, n)) => {
                let n: u32 = n.parse().map_err(|_| format!("bad GPU count {n:?}"))?;
                let level = match level {
                    "low" => Heterogeneity::Low,
                    "mid" => Heterogeneity::Mid,
                    "high" => Heterogeneity::High,
                    other => return Err(format!("unknown heterogeneity {other:?}")),
                };
                let kinds = level.kinds().len();
                if (n as usize) < kinds {
                    return Err(format!(
                        "--cluster {spec}: needs at least one GPU per kind ({kinds})"
                    ));
                }
                Cluster::with_heterogeneity(level, n)
            }
            _ => return Err(format!("unknown cluster spec {spec:?}")),
        };
        let gbps: f64 = self.num("bandwidth", 25.0)?;
        if !(gbps.is_finite() && gbps > 0.0) {
            return Err(format!(
                "--bandwidth must be a positive finite Gbps, got {gbps}"
            ));
        }
        let nic = Bandwidth::gbps(gbps);
        if nic.as_bytes_per_sec() == 0 {
            return Err(format!("--bandwidth {gbps} Gbps rounds to 0 bytes/s"));
        }
        Ok(cluster.with_network(NetworkModel::default().with_nic(nic)))
    }

    /// Parse `--mix cv=0.25,nlp=0.25,speech=0.25,rec=0.25`.
    pub fn mix(&self) -> Result<hare_workload::DomainMix, String> {
        let Some(spec) = self.flags.get("mix") else {
            return Ok(hare_workload::DomainMix::default());
        };
        let mut fractions = [0.25f64; 4];
        for part in spec.split(',') {
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad mix entry {part:?}"))?;
            let idx = match name {
                "cv" => 0,
                "nlp" => 1,
                "speech" => 2,
                "rec" => 3,
                other => return Err(format!("unknown domain {other:?}")),
            };
            fractions[idx] = value
                .parse()
                .map_err(|_| format!("bad fraction {value:?}"))?;
        }
        let sum: f64 = fractions.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("mix must sum to 1, got {sum}"));
        }
        let _ = Domain::ALL; // domains documented in --help
        Ok(hare_workload::DomainMix { fractions })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Options {
        Options::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn flags_and_positionals() {
        let o = parse("compare --jobs 40 --csv --seed 7");
        assert_eq!(o.positional(), ["compare"]);
        assert_eq!(o.num::<u32>("jobs", 0).unwrap(), 40);
        assert_eq!(o.num::<u64>("seed", 0).unwrap(), 7);
        assert!(o.has("csv"));
        assert!(!o.has("missing"));
        assert_eq!(o.num::<u32>("missing", 9).unwrap(), 9);
        assert_eq!(o.unknown_flag("jobs seed"), Some("csv"));
        assert_eq!(o.unknown_flag("csv jobs seed"), None);
    }

    #[test]
    fn cluster_specs() {
        assert_eq!(parse("x").cluster().unwrap().gpu_count(), 15);
        let c = parse("x --cluster high:32").cluster().unwrap();
        assert_eq!(c.gpu_count(), 32);
        assert_eq!(c.kinds_present().len(), 4);
        let c = parse("x --cluster low:8 --bandwidth 10").cluster().unwrap();
        assert_eq!(c.kinds_present().len(), 1);
        assert!((c.network().nic.as_gbps() - 10.0).abs() < 1e-9);
        assert!(parse("x --cluster weird:3").cluster().is_err());
        assert!(parse("x --cluster high:x").cluster().is_err());
        // Fewer GPUs than the level has kinds: an error, not a panic.
        assert_eq!(
            parse("x --cluster high:4").cluster().unwrap().gpu_count(),
            4
        );
        for spec in ["high:3", "mid:1", "low:0"] {
            let err = parse(&format!("x --cluster {spec}")).cluster().unwrap_err();
            assert!(err.contains("at least one GPU per kind"), "{spec}: {err}");
        }
        // Bandwidths that are not finite or round to 0 B/s.
        for gbps in ["nan", "inf", "-inf", "0", "-3", "1e-12"] {
            let err = parse(&format!("x --bandwidth {gbps}"))
                .cluster()
                .unwrap_err();
            assert!(err.starts_with("--bandwidth"), "{gbps}: {err}");
        }
        let c = parse("x --bandwidth 1e-8").cluster().unwrap();
        assert_eq!(c.network().nic.as_bytes_per_sec(), 1);
    }

    #[test]
    fn mix_parsing() {
        let m = parse("x --mix cv=0.4,nlp=0.3,speech=0.2,rec=0.1")
            .mix()
            .unwrap();
        assert_eq!(m.fractions, [0.4, 0.3, 0.2, 0.1]);
        assert!(parse("x --mix cv=0.9").mix().is_err()); // sums to 1.65
        assert!(parse("x --mix foo=1").mix().is_err());
        assert_eq!(
            parse("x").mix().unwrap(),
            hare_workload::DomainMix::default()
        );
    }

    #[test]
    fn duplicate_flags_rejected() {
        let err = Options::parse(["--a".into(), "1".into(), "--a".into(), "2".into()]).unwrap_err();
        assert!(err.contains("duplicate"));
    }
}
