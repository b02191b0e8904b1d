"""Motivating applications: DeathStarBench substitutes.

The paper evaluates on two end-to-end interactive applications from
DeathStarBench: a **Social Network** (28 tiers, Apache Thrift RPCs,
memcached/Redis caching, MongoDB storage, RabbitMQ fan-out, and two ML
content filters) and a **Hotel Reservation** site (Go/gRPC with
memcached and MongoDB backends).  Both topologies are transcribed from
the paper's Figures 1 and 2 and run on the queueing simulator.

A third DeathStarBench-style **Media Service** (movie reviews and movie
pages) goes beyond the paper so multi-tenant experiments can run three
heterogeneous applications against one shared cluster.
"""

# Eager, unlike the other packages' exports on first use: the factories
# share their submodules' names, and importing a submodule binds it on
# the package over a lazily stored factory (``app_spec(...)
# .graph_factory()`` would return the module).
from repro.apps.social_network import social_network, SOCIAL_QOS_MS
from repro.apps.hotel_reservation import hotel_reservation, HOTEL_QOS_MS
from repro.apps.media_service import media_service, MEDIA_QOS_MS
from repro.apps.behaviors import RedisLogSync, encrypted_posts_variant, scaled_replicas_variant

__all__ = [
    "social_network",
    "hotel_reservation",
    "media_service",
    "SOCIAL_QOS_MS",
    "HOTEL_QOS_MS",
    "MEDIA_QOS_MS",
    "RedisLogSync",
    "encrypted_posts_variant",
    "scaled_replicas_variant",
]
