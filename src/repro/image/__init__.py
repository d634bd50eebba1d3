"""Service image substrate.

An ASP prepares "the image of service S, including the executables and
data files, properly organized in a file system" (paper §3), packaged
with RPM (§4.3) and stored on a machine the ASP owns.  This package
models that pipeline:

* :mod:`repro.image.rpm` — RPM-like packages with provides/requires and
  dependency resolution.
* :mod:`repro.image.image` — the :class:`ServiceImage` an ASP publishes:
  rootfs configuration, required system services, application packages,
  entry point, and (for the partitionable-service extension)
  components.
* :mod:`repro.image.repository` — the ASP-side image repository the
  SODA Daemons download from over HTTP.
* :mod:`repro.image.profiles` — the four application-service images of
  the paper's Table 2 (S_I .. S_IV).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "image": ["ServiceComponent", "ServiceImage"],
    "profiles": [
        "make_s1_web_content",
        "make_s2_honeypot",
        "make_s3_lfs",
        "make_s4_full_server",
        "paper_profiles",
    ],
    "repository": ["ImageRepository", "UnknownImage"],
    "rpm": ["DependencyError", "RpmPackage", "resolve_dependencies"],
})
